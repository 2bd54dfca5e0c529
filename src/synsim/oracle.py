"""Closed-form references used to validate the event engine.

With a static controller the backlog is a two-class Erlang loss system in
both hold modes: m slots, Poisson arrivals per class, and holding times
drawn independently of the occupancy.  A regular entry holds min(Exp(mu),
h) in deterministic mode and min(Exp(mu), Exp(mean h)) in exponential mode;
an attack entry holds h or Exp(mean h).  The steady state of such a system
depends on each class's mean holding time only, not on its distribution
(insensitivity; Sevastyanov 1957, Kelly 1979), so with offered loads
a_i = lambda_i * E[hold_i] and B = erlang_b(m, a1 + a2) it is exact that

    Ploss = B (by PASTA),  Pr = a1 (1 - B) / m,  Pa = a2 (1 - B) / m

(Pr and Pa are mean occupancies over m, by Little's law).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .domain import DefenseParams, SimConfig, TrafficModel


def erlang_b(m: int, offered_load: float) -> float:
    """Blocking probability of an M/M/m/m loss system.

    Recursion: B(0) = 1, B(n) = a*B(n-1) / (n + a*B(n-1)).  Below the normal
    range B is carried as b 2**e, b in [0.5, 1), and rounded once at the end,
    since in float a step from B = 5e-324 gives it back while a/n > 1/2; it
    stops once B < 2**-1075, which rounds to 0.0, as every later B does.  A
    load with a + m == a in float, inf included, has n + a == a for n <= m
    (rounding is monotone), so every step gives 1.0 and it returns 1.0 at once.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if not offered_load >= 0:  # nan included
        raise ValueError("offered load must be non-negative")
    if offered_load + m == offered_load:
        return 1.0
    b = 1.0
    for n in range(1, m + 1):
        b = offered_load * b / (n + offered_load * b)
        if b < 2.2250738585072014e-308:  # sys.float_info.min, the least normal float
            b, e = math.frexp(b)  # b = 0.0, stopping it, if B(n) underflowed to 0.0
            while b and e >= -1074 and n < m:
                n += 1
                b, k = math.frexp(offered_load * b / (n + math.ldexp(offered_load * b, e)))
                e += k
            return math.ldexp(b, e)
    return b


@dataclass(frozen=True)
class LossSteadyState:
    """Blocked fraction and mean occupancy fraction of each class."""

    Ploss: float
    Pr: float
    Pa: float


def two_class_loss(m: int, a1: float, a2: float) -> LossSteadyState:
    """Steady state of m shared slots under class loads a1 and a2, a = a1 + a2.

    Class i's load is its arrival rate times its mean holding time, under
    any holding-time distribution.  B = a B(m - 1) / (m + a B(m - 1)) and
    a_i (1 - B) / m = a_i / (m + a B(m - 1)), so no 1 - B cancels when B is
    next to 1.  Every term is divided by s = max(a1, a2, 1), so none
    overflows, and an a past the largest float has B(m - 1) = 1.0, its
    float value.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not (0 <= a1 < math.inf and 0 <= a2 < math.inf):  # nan included
        raise ValueError("class loads must be finite and non-negative")
    scale = max(a1, a2, 1.0)
    x1, x2 = a1 / scale, a2 / scale
    held = (x1 + x2) * erlang_b(m - 1, a1 + a2)  # a B(m - 1) / s
    total = m / scale + held
    return LossSteadyState(Ploss=held / total, Pr=x1 / total, Pa=x2 / total)


def steady_state(config: SimConfig) -> LossSteadyState:
    """Steady state of config run under its initial (h, m), held fixed.

    Exact to float rounding whenever each class load, lambda_i E[hold_i],
    is finite; a class load past the largest float raises ValueError.
    """
    traffic, params = config.traffic, config.initial_params
    lambda1, mu, h = traffic.lambda1, traffic.mu, params.h
    if config.hold_mode == "deterministic":
        # E[min(Exp(mu), h)], which is h to float precision once mu h is subnormal
        x = mu * h
        a1 = lambda1 * (-math.expm1(-x) / mu if x >= sys.float_info.min else h)
    else:
        rate = mu + 1.0 / h  # min(Exp(mu), Exp(1/h)) is Exp(mu + 1/h)
        # rate overflows only for h < 1e-291, where mu h and lambda1 h are below 1e17
        a1 = lambda1 / rate if rate < math.inf else lambda1 * h / (1.0 + mu * h)
    return two_class_loss(params.m, a1, traffic.lambda2 * h)


@dataclass(frozen=True)
class OracleCase:
    """A static run whose cumulative Ploss, Pr and Pa must each lie within
    tol of steady_state(config)."""

    name: str
    config: SimConfig
    tol: float


def _static(seed: int, hold_mode: str, traffic: TrafficModel,
            params: DefenseParams) -> SimConfig:
    return SimConfig(master_seed=seed, controller_kind="static",
                     hold_mode=hold_mode, traffic=traffic,
                     total_requests=1_000_000, window_size=1000,
                     initial_params=params)


# `synsim validate` runs every row; the first three are acceptance criteria 1-2.
ORACLE_CASES = (
    OracleCase("exponential single class m=10",
               _static(101, "exponential", TrafficModel(lambda1=5, k=0.0, mu=1),
                       DefenseParams(1e9, 10)), 0.003),
    OracleCase("exponential symmetric m=1",
               _static(102, "exponential", TrafficModel(lambda1=1, k=1.0, mu=1e-9),
                       DefenseParams(1.0, 1)), 0.01),
    OracleCase("exponential two-class m=8",
               _static(103, "exponential", TrafficModel(lambda1=10, k=1.0, mu=100),
                       DefenseParams(0.5, 8)), 0.005),
    OracleCase("deterministic h=2 m=16",
               _static(104, "deterministic", TrafficModel(lambda1=10, k=1.0, mu=1),
                       DefenseParams(2.0, 16)), 0.005),
    OracleCase("deterministic h=75 m=1024",
               _static(105, "deterministic", TrafficModel(lambda1=10, k=2.0, mu=100),
                       DefenseParams(75.0, 1024)), 0.005),
)
