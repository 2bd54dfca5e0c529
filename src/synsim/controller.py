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
from .domain import DefenseParams
from .metrics import WindowMetrics

# the automata's action grids and their reward and penalty steps
H_ACTIONS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 75.0)  # hold time h, seconds
M_ACTIONS = (64, 128, 256, 512, 1024)                    # capacity m, slots
REWARD_STEP = 0.1
PENALTY_STEP = 0.05

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

    def __init__(self):
        # (h, m), DefenseParams' field order: the order rng is read in and traced
        self.automata = self.h_automaton, self.m_automaton = (
            Automaton(H_ACTIONS, REWARD_STEP, PENALTY_STEP),
            Automaton(M_ACTIONS, REWARD_STEP, PENALTY_STEP))
        self.prev_score = _NO_SCORE
        # (p_h, p_m) after each round; round r is at index r
        self.trace: list[tuple[tuple[float, ...], tuple[float, ...]]] = []

    def _end_round(self) -> DefenseParams:
        """Trace the round's vectors; returns its pair, the automata's last selections."""
        self.trace.append(tuple(a.p for a in self.automata))
        return DefenseParams(*(a.actions[a.last_selected] for a in self.automata))

    def _sample(self, rng: np.random.Generator) -> None:
        for a in self.automata:
            a.select(rng)

    def initial_params(self, rng: np.random.Generator) -> DefenseParams:
        self._sample(rng)
        return self._end_round()

    def on_window_end(self, metrics: WindowMetrics,
                      rng: np.random.Generator) -> DefenseParams:
        score = window_score(metrics)
        favorable = feedback_signal(score, self.prev_score) == 0
        self.prev_score = score
        # a favorable window keeps the pair: last_selected stays valid for next round
        for a in self.automata:
            (a.reward if favorable else a.penalty)(a.last_selected)
        if not favorable:
            self._sample(rng)
        return self._end_round()


def make_controller(config) -> StaticController | LaController:
    if config.controller_kind == "static":
        return StaticController(config.initial_params)
    return LaController()
