"""Core value types, configuration schema, and validation.

Everything here is an immutable value object; the rest of the package
passes these around freely.
"""

from __future__ import annotations

import json
import math
import numbers
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
    """Two independent Poisson streams: regular at lambda1, attack at k*lambda1.

    Together they are one Poisson stream at lambda1 * (1 + k), each arrival an
    attack with probability k / (1 + k), which is how the engine samples them.
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
class SimConfig:
    """One run's settings; building one that validate_config rejects raises ValueError.

    Numbers are stored as float (lambda1, k, mu, h) or int (the rest), whatever their type.
    """

    master_seed: int
    traffic: TrafficModel = field(default_factory=TrafficModel)
    total_requests: int = 50000
    window_size: int = 500
    controller_kind: str = "la"                 # "static" | "la"
    initial_params: DefenseParams = field(
        default_factory=lambda: DefenseParams(75.0, 128))
    hold_mode: str = "deterministic"            # "deterministic" | "exponential"

    def __post_init__(self):
        violations = validate_config(self)
        if violations:
            raise ValueError("invalid config: " + "; ".join(violations))
        t, p = self.traffic, self.initial_params
        for name, value in (("traffic", TrafficModel(float(t.lambda1), float(t.k), float(t.mu))),
                            ("initial_params", DefenseParams(float(p.h), int(p.m))),
                            ("master_seed", int(self.master_seed)),
                            ("total_requests", int(self.total_requests)),
                            ("window_size", int(self.window_size))):
            object.__setattr__(self, name, value)


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


def _instance(name: str, value, cls, violations: list[str]) -> bool:
    """True if value is a cls, else record why not."""
    if isinstance(value, cls):
        return True
    violations.append(f"{name} must be a {cls.__name__}")
    return False


def _choice(name: str, value, choices: tuple[str, ...], violations: list[str]) -> None:
    """Record why not unless value is one of the strings in choices."""
    if not (isinstance(value, str) and value in choices):  # no array's == reaches `in`
        violations.append(f"{name} must be " + " or ".join(map(repr, choices)))


def validate_config(config: SimConfig) -> list[str]:
    """Return every violated constraint (empty list means the config is ok).

    Total: never raises; every input maps to ok or a non-empty list.  Each
    message names the field it is about.
    """
    v: list[str] = []
    if _integer("master_seed", config.master_seed, v) and config.master_seed < 0:
        v.append("master_seed must be non-negative")
    t = config.traffic
    if _instance("traffic", t, TrafficModel, v):
        if _number("lambda1", t.lambda1, v):
            if t.lambda1 <= 0:
                v.append("lambda1 must be strictly positive")
            elif (_is_int(config.total_requests)
                  and config.total_requests >= 1e300 * float(t.lambda1)):
                # a horizon near the largest float sends arrival times past it
                v.append("lambda1 must exceed total_requests / 1e300")
        if _number("k", t.k, v):
            if t.k < 0:
                v.append("k must be non-negative")
            elif _is_finite(t.lambda1) and not math.isfinite(float(t.k) * float(t.lambda1)):
                v.append("k must keep the attack rate k * lambda1 finite")
        if _number("mu", t.mu, v) and t.mu <= 0:
            v.append("mu must be strictly positive")
    p = config.initial_params
    if _instance("initial_params", p, DefenseParams, v):
        if _number("h", p.h, v) and p.h <= 0:
            v.append("h must be strictly positive")
        if _integer("m", p.m, v):
            if p.m < 1:
                v.append("m must be at least 1")
            elif not _is_finite(p.m):  # the settle and the oracle divide by it as a float
                v.append("m must be within the float range")
    total_ok = _integer("total_requests", config.total_requests, v)
    if _integer("window_size", config.window_size, v):
        # as Python ints: numpy ints of two widths may not hold each other
        window = int(config.window_size)
        if window < 1:
            v.append("window_size must be at least 1")
        elif total_ok and (int(config.total_requests) < window
                           or int(config.total_requests) % window):
            v.append("total_requests must be a positive multiple of window_size")
    _choice("controller_kind", config.controller_kind, ("static", "la"), v)
    _choice("hold_mode", config.hold_mode, ("deterministic", "exponential"), v)
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
    Unknown or missing keys, nested ones included, raise ValueError, and
    so does a value validate_config rejects.
    """
    kwargs = _keys(SimConfig, data, "config")
    for name, cls in (("traffic", TrafficModel), ("initial_params", DefenseParams)):
        if name in kwargs:
            kwargs[name] = cls(**_keys(cls, kwargs[name], name))
    return SimConfig(**kwargs)


def load_config(path: str | Path) -> SimConfig:
    """Load a SimConfig from a UTF-8 JSON document."""
    with open(path, encoding="utf-8") as f:
        return config_from_dict(json.load(f))
