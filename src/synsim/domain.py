"""Core value types, configuration schema, and validation.

Everything here is an immutable value object; the rest of the package
passes these around freely.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from enum import IntEnum
from pathlib import Path


class RequestClass(IntEnum):
    """A request's class; its int value indexes the engine's [regular, attack] pairs."""

    REGULAR = 0
    ATTACK = 1


@dataclass(frozen=True)
class DefenseParams:
    """The tunable server pair: half-open hold time and backlog capacity."""

    h: float  # seconds, > 0
    m: int    # backlog slots, >= 1


@dataclass(frozen=True)
class TrafficModel:
    """Two merged Poisson streams: regular at lambda1, attack at k*lambda1.

    mu is the completion rate of the regular three-way handshake; attack
    requests never complete.
    """

    lambda1: float = 10.0
    k: float = 1.0
    mu: float = 100.0

    @property
    def lambda2(self) -> float:
        # always derived, never stored
        return self.k * self.lambda1


@dataclass(frozen=True)
class LaSettings:
    """Action grids and learning rates for the two automata."""

    h_actions: tuple[float, ...] = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 75.0)
    m_actions: tuple[int, ...] = (64, 128, 256, 512, 1024)
    a: float = 0.1
    b: float = 0.05


@dataclass(frozen=True)
class SimConfig:
    master_seed: int
    traffic: TrafficModel = field(default_factory=TrafficModel)
    total_requests: int = 50000
    window_size: int = 500
    controller_kind: str = "la"                 # "static" | "la"
    initial_params: DefenseParams = field(
        default_factory=lambda: DefenseParams(75.0, 128))
    la_settings: LaSettings = field(default_factory=LaSettings)
    hold_mode: str = "deterministic"            # "deterministic" | "exponential"
    epsilon_floor: float = 1e-6


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int past the float range
        return False


def _number(name: str, value, violations: list[str]) -> bool:
    """True if value is a finite real number, else record why not."""
    if _is_finite(value):
        return True
    violations.append(f"{name} must be a finite number")
    return False


def _integer(name: str, value, violations: list[str]) -> bool:
    """True if value is an integer (bool excluded), else record why not."""
    if _is_int(value):
        return True
    violations.append(f"{name} must be an integer")
    return False


def _check_action_grid(name: str, grid, is_value, kind: str,
                       violations: list[str]) -> None:
    if not isinstance(grid, Sequence):
        violations.append(f"{name} must be a sequence")
        return
    if len(grid) == 0:
        violations.append(f"{name} must be non-empty")
        return
    if not all(is_value(v) for v in grid):
        violations.append(f"{name} values must be {kind}")
        return
    if any(v <= 0 for v in grid):
        violations.append(f"{name} values must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        violations.append(f"{name} must be strictly increasing")


def validate_config(config: SimConfig) -> list[str]:
    """Return every violated constraint (empty list means the config is ok).

    Total: never raises; every input maps to ok or a non-empty list.  Each
    message names the field it is about.
    """
    v: list[str] = []
    if _integer("master_seed", config.master_seed, v) and config.master_seed < 0:
        v.append("master_seed must be non-negative")
    t = config.traffic
    if _number("lambda1", t.lambda1, v):
        if t.lambda1 <= 0:
            v.append("lambda1 must be strictly positive")
        elif _is_int(config.total_requests) and config.total_requests >= 1e300 * t.lambda1:
            # a horizon near the largest float sends arrival times past it
            v.append("lambda1 must exceed total_requests / 1e300")
    if _number("k", t.k, v) and t.k < 0:
        v.append("k must be non-negative")
    if _number("mu", t.mu, v) and t.mu <= 0:
        v.append("mu must be strictly positive")
    p = config.initial_params
    if _number("h", p.h, v) and p.h <= 0:
        v.append("h must be strictly positive")
    if _integer("m", p.m, v) and p.m < 1:
        v.append("m must be at least 1")
    total_ok = _integer("total_requests", config.total_requests, v)
    if _integer("window_size", config.window_size, v):
        if config.window_size < 1:
            v.append("window_size must be at least 1")
        elif total_ok and config.total_requests < config.window_size:
            v.append("window exceeds total requests")
        elif total_ok and config.total_requests % config.window_size:
            v.append("total_requests must be a multiple of window_size")
    if _number("epsilon_floor", config.epsilon_floor, v) and config.epsilon_floor <= 0:
        v.append("epsilon_floor must be strictly positive")
    if config.controller_kind not in ("static", "la"):
        v.append("controller_kind must be 'static' or 'la'")
    if config.hold_mode not in ("deterministic", "exponential"):
        v.append("hold_mode must be 'deterministic' or 'exponential'")
    la = config.la_settings
    _check_action_grid("h_actions", la.h_actions, _is_finite, "finite numbers", v)
    _check_action_grid("m_actions", la.m_actions, _is_int, "integers", v)
    if _number("reward step a", la.a, v) and not 0.0 < la.a < 1.0:
        v.append("reward step a must lie in (0, 1)")
    if _number("penalty step b", la.b, v) and not 0.0 <= la.b < 1.0:
        v.append("penalty step b must lie in [0, 1)")
    return v


def _keys(cls, data, name: str) -> dict:
    """data as keyword arguments of dataclass cls.

    Raises ValueError naming every unknown key, or every missing key that
    has no default.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be an object")
    known = fields(cls)
    unknown = sorted(set(data) - {f.name for f in known})
    if unknown:
        raise ValueError(f"unknown {name} keys: {unknown}")
    missing = [f.name for f in known if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{name} requires keys: {missing}")
    return dict(data)


def config_from_dict(data: dict) -> SimConfig:
    """Build a SimConfig from a plain dict (e.g. parsed JSON).

    Every key is optional except master_seed; keys mirror the field names.
    Unknown or missing keys, nested ones included, raise ValueError.  A
    finite number h becomes a float and a list grid a tuple; any other value
    is kept as it is, for validate_config to report.
    """
    kwargs = _keys(SimConfig, data, "config")
    if "traffic" in kwargs:
        traffic = _keys(TrafficModel, kwargs["traffic"], "traffic")
        kwargs["traffic"] = TrafficModel(**traffic)
    if "initial_params" in kwargs:
        ip = _keys(DefenseParams, kwargs["initial_params"], "initial_params")
        h = ip["h"]
        kwargs["initial_params"] = DefenseParams(float(h) if _is_finite(h) else h, ip["m"])
    if "la_settings" in kwargs:
        ls = _keys(LaSettings, kwargs["la_settings"], "la_settings")
        for key in ("h_actions", "m_actions"):
            if isinstance(ls.get(key), list):
                ls[key] = tuple(ls[key])
        kwargs["la_settings"] = LaSettings(**ls)
    return SimConfig(**kwargs)


def load_config(path: str | Path) -> SimConfig:
    """Load a SimConfig from a UTF-8 JSON document."""
    with open(path, encoding="utf-8") as f:
        return config_from_dict(json.load(f))
