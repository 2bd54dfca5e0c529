"""Per-window observables and the controller objective.

Pr and Pa are time-weighted occupancy shares: the integral of n(t)/m(t)
over the window, divided by the window duration.  Ploss is the blocked
fraction of arrivals.  The objective J = Pr / (Pa * Ploss) with every
factor floored at EPSILON_FLOOR so the no-attack case stays finite.
"""

from __future__ import annotations

from typing import NamedTuple

EPSILON_FLOOR = 1e-6


class WindowMetrics(NamedTuple):
    arrivals_regular: int
    arrivals_attack: int
    blocked_regular: int
    blocked_attack: int
    completed: int
    legit_expired: int
    Ploss: float
    Pr: float
    Pa: float
    J: float
    window_duration: float


_N_COUNTS = WindowMetrics._fields.index("Ploss")  # the counts come first


def objective(Pr: float, Pa: float, Ploss: float) -> float:
    """J = max(Pr, eps) / (max(Pa, eps) * max(Ploss, eps)), eps = EPSILON_FLOOR.

    Floor-then-divide keeps comparisons total: a zero-attack window yields
    a large finite J (at most 1 / eps**2 for Pr <= 1) rather than infinity.
    """
    eps = EPSILON_FLOOR
    return max(Pr, eps) / (max(Pa, eps) * max(Ploss, eps))


def finalize_window(counts, integrals, duration: float) -> WindowMetrics:
    """Turn one window's counts and integrals into a WindowMetrics.

    counts are the six counts, in WindowMetrics' field order; integrals are
    each class's occupancy / m integrated over exactly this window, regular
    first.
    """
    if duration <= 0.0:
        raise ValueError("empty window")
    arrivals = counts[0] + counts[1]
    blocked = counts[2] + counts[3]
    ploss = blocked / arrivals if arrivals > 0 else 0.0
    # a sum of resident spans / m can overshoot the duration by a few ulp, and
    # after an m shrink below the occupancy by the residents over the new m:
    # the cap drops both, the second a real excess
    pr, pa = (min(integral / duration, 1.0) for integral in integrals)
    return WindowMetrics(*counts, ploss, pr, pa, objective(pr, pa, ploss), duration)


def cumulative_metrics(windows: list[WindowMetrics]) -> WindowMetrics:
    """Aggregate per-window metrics over a whole run, as one window.

    A window's integrals are Pr and Pa times its duration, so the run's Pr
    and Pa are duration-weighted averages and its Ploss the overall blocked
    fraction.
    """
    if not windows:
        raise ValueError("no windows to aggregate")
    rows = [(*w[:_N_COUNTS], w.Pr * w.window_duration,
             w.Pa * w.window_duration, w.window_duration) for w in windows]
    *counts, regular, attack, duration = map(sum, zip(*rows))
    return finalize_window(counts, (regular, attack), duration)
