"""Per-window decision policies: the static baseline and the adaptive tuner.

The adaptive controller runs two independent automata, one over the hold
time grid and one over the capacity grid.  At every window boundary it
ranks the finished window by `window_score`, converts the rank to a binary
signal (0 = favorable, 1 = unfavorable) against the previous window,
updates both automata with that shared signal, and emits the next (h, m).
"""

from __future__ import annotations

import math

import numpy as np

from .automata import Automaton
from .domain import DefenseParams, LaSettings
from .metrics import WindowMetrics

# ranks below every window, so the first scored window is always favorable
_NO_SCORE = (-math.inf, -math.inf, -math.inf)


def window_score(w: WindowMetrics) -> tuple[float, float, float]:
    """Rank key of a finished window: fewer losses, then more Pr, then more J.

    In the closed form, Ploss = erlang_b(m, a1 + a2), Pr = a1 (1 - Ploss) / m
    and Pa = a2 (1 - Ploss) / m, with a1 = lambda1 (1 - e^{-mu h}) / mu and
    a2 = k lambda1 h.  Pa scales with k at every (h, m) and Pr / Pa has no m,
    so J alone ranks the pairs alike at every k.  k enters only through
    blocking: a pair loses nothing while a2 stays well below m.  Ranking by
    Ploss first lets k choose the loss-free pairs (shorter h, larger m as k
    grows); among windows that lose as much, Pr = a1 / m prefers the smallest
    capacity.  J breaks the remaining ties, so a window that carries only J
    is ranked by J.
    """
    return (-w.Ploss, w.Pr, w.J)


def feedback_signal(score, baseline) -> int:
    """0 (favorable) iff the window's score strictly beats the baseline, else 1."""
    return 0 if score > baseline else 1


class StaticController:
    """Fixed (h, m) at every round; models the stock Linux configuration."""

    kind = "static"

    def __init__(self, params: DefenseParams):
        self.params = params

    def initial_params(self, rng: np.random.Generator) -> DefenseParams:
        return self.params

    def on_window_end(self, metrics: WindowMetrics,
                      rng: np.random.Generator) -> DefenseParams:
        return self.params


class LaController:
    """Two-automata tuner reinforced by `window_score` comparisons.

    Round 0 selects from the uniform priors without any update; from round
    1 on, each window's score is compared with the previous window's, the
    shared signal updates both automata at their last selected indices, and
    the next pair is either retained (favorable) or re-sampled from the
    updated vectors (unfavorable).
    """

    kind = "la"

    def __init__(self, settings: LaSettings):
        self.h_automaton = Automaton(settings.h_actions, settings.a, settings.b)
        self.m_automaton = Automaton(settings.m_actions, settings.a, settings.b)
        self.prev_score = _NO_SCORE
        self.current: DefenseParams | None = None
        self.round = 0
        self.trace: list[tuple[int, np.ndarray, np.ndarray]] = []

    def _sample(self, rng: np.random.Generator) -> DefenseParams:
        hi = self.h_automaton.select(rng)
        mi = self.m_automaton.select(rng)
        return DefenseParams(self.h_automaton.actions[hi],
                             self.m_automaton.actions[mi])

    def _record(self) -> None:
        self.trace.append((self.round, self.h_automaton.p.copy(),
                           self.m_automaton.p.copy()))

    def initial_params(self, rng: np.random.Generator) -> DefenseParams:
        self.current = self._sample(rng)
        self._record()
        return self.current

    def on_window_end(self, metrics: WindowMetrics,
                      rng: np.random.Generator) -> DefenseParams:
        if self.current is None:
            # round 0 without a prior initial_params call
            params = self.initial_params(rng)
            self.round += 1
            return params
        score = window_score(metrics)
        beta = feedback_signal(score, self.prev_score)
        self.prev_score = score
        hi = self.h_automaton.last_selected
        mi = self.m_automaton.last_selected
        if beta == 0:
            # keep the winning pair; last_selected stays valid for next round
            self.h_automaton.reward(hi)
            self.m_automaton.reward(mi)
        else:
            self.h_automaton.penalty(hi)
            self.m_automaton.penalty(mi)
            self.current = self._sample(rng)
        self.round += 1
        self._record()
        return self.current


def make_controller(config) -> StaticController | LaController:
    if config.controller_kind == "static":
        return StaticController(config.initial_params)
    return LaController(config.la_settings)
