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
from dataclasses import dataclass

from .domain import DefenseParams, SimConfig, TrafficModel


def erlang_b(m: int, offered_load: float) -> float:
    """Blocking probability of an M/M/m/m loss system.

    Recursion: B(0) = 1, B(n) = a*B(n-1) / (n + a*B(n-1)).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if offered_load < 0:
        raise ValueError("offered load must be non-negative")
    b = 1.0
    for n in range(1, m + 1):
        b = offered_load * b / (n + offered_load * b)
    return b


@dataclass(frozen=True)
class LossSteadyState:
    """Blocked fraction and mean occupancy fraction of each class."""

    Ploss: float
    Pr: float
    Pa: float


def two_class_loss(m: int, lambda1: float, lambda2: float,
                   rate1: float, rate2: float) -> LossSteadyState:
    """Steady state of a two-class loss system with m shared slots.

    Class i arrives at lambda_i and holds a slot for a mean time 1/rate_i,
    under any holding-time distribution.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if rate1 <= 0 or rate2 <= 0:
        raise ValueError("departure rates must be positive")
    if lambda1 < 0 or lambda2 < 0:
        raise ValueError("arrival rates must be non-negative")
    a1, a2 = lambda1 / rate1, lambda2 / rate2
    b = erlang_b(m, a1 + a2)
    return LossSteadyState(Ploss=b, Pr=a1 * (1.0 - b) / m, Pa=a2 * (1.0 - b) / m)


def steady_state(config: SimConfig) -> LossSteadyState:
    """Steady state of config run under its initial (h, m), held fixed."""
    traffic, params = config.traffic, config.initial_params
    mu, h = traffic.mu, params.h
    if config.hold_mode == "deterministic":
        mean_regular = -math.expm1(-mu * h) / mu  # E[min(Exp(mu), h)]
    else:
        mean_regular = h / (mu * h + 1.0)         # E[min(Exp(mu), Exp(1/h))]
    return two_class_loss(params.m, traffic.lambda1, traffic.lambda2,
                          1.0 / mean_regular, 1.0 / h)


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
