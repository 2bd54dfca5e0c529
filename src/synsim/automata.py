"""Variable-structure learning automaton with binary (P-model) feedback.

The automaton keeps a probability vector over a finite ordered action set
and nudges it with the classic linear scheme: a favorable response pulls
probability toward the selected action, an unfavorable one pushes it away
and redistributes to the others.  b = 0 gives reward-inaction.  The vector
is a tuple of floats, so a recorded one never changes.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate


class Automaton:
    """Ordered action set, probability vector, and the linear update rules."""

    def __init__(self, actions, a: float, b: float):
        if len(actions) < 2:
            raise ValueError("need at least 2 actions")
        if not 0.0 < a < 1.0:
            raise ValueError("reward step a must lie in (0, 1)")
        if not 0.0 <= b < 1.0:
            raise ValueError("penalty step b must lie in [0, 1)")
        self.actions = tuple(actions)
        self.a = a
        self.b = b
        self.p = (1.0 / len(actions),) * len(actions)  # the uniform prior
        self.last_selected: int | None = None

    def select(self, rng) -> int:
        """Draw an action index by inverse CDF at u = rng.random() over the ordered actions."""
        i = bisect_right(list(accumulate(self.p)), rng.random())
        self.last_selected = min(i, len(self.p) - 1)  # guard against the sums' rounding at u ~ 1
        return self.last_selected

    def reward(self, i: int) -> None:
        """Favorable response: p_i += a*(1 - p_i), others scaled by (1 - a)."""
        if i != self.last_selected:
            raise ValueError("feedback for unselected action")
        a = self.a
        self.p = tuple(q + a * (1.0 - q) if j == i else q * (1.0 - a)
                       for j, q in enumerate(self.p))

    def penalty(self, i: int) -> None:
        """Unfavorable response: p_i *= (1 - b), others get b/(r-1) + (1-b)*p_j."""
        if i != self.last_selected:
            raise ValueError("feedback for unselected action")
        b, r = self.b, len(self.p)
        self.p = tuple((1.0 - b) * q if j == i else b / (r - 1) + (1.0 - b) * q
                       for j, q in enumerate(self.p))
