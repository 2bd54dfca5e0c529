"""Per-window observables and the controller objective.

Pr and Pa are time-weighted occupancy shares: the integral of n(t)/m(t)
over the window, divided by the window duration.  Ploss is the blocked
fraction of arrivals.  The objective J = Pr / (Pa * Ploss) with every
factor floored at epsilon so the no-attack case stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass

J_CAP = 1e18


@dataclass(frozen=True)
class WindowMetrics:
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


def objective(Pr: float, Pa: float, Ploss: float, epsilon_floor: float) -> float:
    """J = max(Pr, eps) / (max(Pa, eps) * max(Ploss, eps)), capped at 1e18.

    Floor-then-divide keeps comparisons total: a zero-attack window yields
    a large finite J rather than infinity.
    """
    j = max(Pr, epsilon_floor) / (max(Pa, epsilon_floor) * max(Ploss, epsilon_floor))
    return min(j, J_CAP)


def finalize_window(arrivals_regular: int, arrivals_attack: int,
                    blocked_regular: int, blocked_attack: int,
                    completed: int, legit_expired: int,
                    norm_integral_regular: float, norm_integral_attack: float,
                    duration: float, epsilon_floor: float) -> WindowMetrics:
    """Turn one window's counts and integrals into a WindowMetrics.

    The integrals are each class's occupancy / m integrated over exactly
    this window.
    """
    if duration <= 0.0:
        raise ValueError("empty window")
    arrivals = arrivals_regular + arrivals_attack
    blocked = blocked_regular + blocked_attack
    ploss = blocked / arrivals if arrivals > 0 else 0.0
    # a sum of resident spans / m can overshoot the duration by a few ulp
    pr = min(norm_integral_regular / duration, 1.0)
    pa = min(norm_integral_attack / duration, 1.0)
    return WindowMetrics(
        arrivals_regular=arrivals_regular,
        arrivals_attack=arrivals_attack,
        blocked_regular=blocked_regular,
        blocked_attack=blocked_attack,
        completed=completed,
        legit_expired=legit_expired,
        Ploss=ploss,
        Pr=pr,
        Pa=pa,
        J=objective(pr, pa, ploss, epsilon_floor),
        window_duration=duration,
    )


def cumulative_metrics(windows: list[WindowMetrics], epsilon_floor: float) -> WindowMetrics:
    """Aggregate per-window metrics over a whole run, as one window.

    A window's integrals are Pr and Pa times its duration, so the run's Pr
    and Pa are duration-weighted averages and its Ploss the overall blocked
    fraction.
    """
    if not windows:
        raise ValueError("no windows to aggregate")
    rows = [(w.arrivals_regular, w.arrivals_attack, w.blocked_regular, w.blocked_attack,
             w.completed, w.legit_expired, w.Pr * w.window_duration,
             w.Pa * w.window_duration, w.window_duration) for w in windows]
    return finalize_window(*map(sum, zip(*rows)), epsilon_floor)
