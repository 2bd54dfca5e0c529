"""Variable-structure learning automaton with binary (P-model) feedback.

The automaton keeps a probability vector over a finite ordered action set
and nudges it with the classic linear scheme: a favorable response pulls
probability toward the selected action, an unfavorable one pushes it away
and redistributes to the others.  b = 0 gives reward-inaction.
"""

from __future__ import annotations

import numpy as np


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
        self.p = np.full(self.r, 1.0 / self.r)  # the uniform prior
        self.last_selected: int | None = None

    @property
    def r(self) -> int:
        return len(self.actions)

    def select(self, rng: np.random.Generator) -> int:
        """Draw an action index by inverse CDF over the ordered action list."""
        u = rng.random()
        i = int(np.searchsorted(np.cumsum(self.p), u, side="right"))
        i = min(i, self.r - 1)  # guard against cumsum rounding at u ~ 1
        self.last_selected = i
        return i

    def reward(self, i: int) -> None:
        """Favorable response: p_i += a*(1 - p_i), others scaled by (1 - a)."""
        if i != self.last_selected:
            raise ValueError("feedback for unselected action")
        a = self.a
        pi = self.p[i]
        self.p *= (1.0 - a)
        self.p[i] = pi + a * (1.0 - pi)

    def penalty(self, i: int) -> None:
        """Unfavorable response: p_i *= (1 - b), others get b/(r-1) + (1-b)*p_j."""
        if i != self.last_selected:
            raise ValueError("feedback for unselected action")
        b = self.b
        pi = self.p[i]
        self.p = b / (self.r - 1) + (1.0 - b) * self.p
        self.p[i] = (1.0 - b) * pi
