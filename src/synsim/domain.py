"""Core value types, configuration schema, and validation.

Everything here is an immutable value object; the rest of the package
passes these around freely.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path


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
        t = self.traffic
        for name, value in (("traffic", TrafficModel(float(t.lambda1), float(t.k), float(t.mu))),
                            ("initial_params", checked_params(self.initial_params,
                                                              "initial_params")),
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


def _recorder(v: list[str]):
    def need(ok, name: str, rule: str):
        """ok, after recording "<name> must <rule>" in v unless it holds."""
        if not ok:
            v.append(f"{name} must {rule}")
        return ok
    return need


def _params_violations(p, name: str) -> list[str]:
    """Every rule of an (h, m) pair that p, called name, breaks: "<field> must <rule>"."""
    v: list[str] = []
    need = _recorder(v)
    if need(isinstance(p, DefenseParams), name, "be a DefenseParams"):
        if need(_is_finite(p.h), "h", "be a finite number"):
            need(p.h > 0, "h", "be strictly positive")
        if need(_is_int(p.m), "m", "be an integer") and need(p.m >= 1, "m", "be at least 1"):
            # the settle and the oracle divide by it as a float
            need(_is_finite(p.m), "m", "be within the float range")
    return v


def checked_params(p, name: str = "(h, m)") -> DefenseParams:
    """p as a config stores it, DefenseParams(float(h), int(m)); a pair that
    breaks a rule raises ValueError naming each broken rule."""
    if violations := _params_violations(p, name):
        raise ValueError("; ".join(violations))
    return DefenseParams(float(p.h), int(p.m))


def validate_config(config: SimConfig) -> list[str]:
    """Return every violated constraint (empty list means the config is ok).

    Total: never raises; every input maps to ok or a non-empty list.  Each
    message reads "<field> must <rule>": it starts with the field's name,
    which the CLI maps to the flag behind it.
    """
    v: list[str] = []
    need = _recorder(v)
    seed, total, window = config.master_seed, config.total_requests, config.window_size
    if need(_is_int(seed), "master_seed", "be an integer"):
        need(seed >= 0, "master_seed", "be non-negative")
    t = config.traffic
    if need(isinstance(t, TrafficModel), "traffic", "be a TrafficModel"):
        if (need(_is_finite(t.lambda1), "lambda1", "be a finite number")
                and need(t.lambda1 > 0, "lambda1", "be strictly positive")):
            # a horizon near the largest float sends arrival times past it
            need(not _is_int(total) or total < 1e300 * float(t.lambda1),
                 "lambda1", "exceed total_requests / 1e300")
        if (need(_is_finite(t.k), "k", "be a finite number")
                and need(t.k >= 0, "k", "be non-negative")):
            need(not _is_finite(t.lambda1) or math.isfinite(float(t.k) * float(t.lambda1)),
                 "k", "keep the attack rate k * lambda1 finite")
        if need(_is_finite(t.mu), "mu", "be a finite number"):
            need(t.mu > 0, "mu", "be strictly positive")
    v += _params_violations(config.initial_params, "initial_params")
    total_ok = need(_is_int(total), "total_requests", "be an integer")
    # as Python ints: numpy ints of two widths may not hold each other
    if (need(_is_int(window), "window_size", "be an integer")
            and need(int(window) >= 1, "window_size", "be at least 1")
            # a running window takes about 150 bytes per arrival: about 150 MB here
            and need(int(window) <= 10**6, "window_size", "be at most 1000000") and total_ok):
        need(int(total) >= int(window) and not int(total) % int(window),
             "total_requests", "be a positive multiple of window_size")
    for name, a, b in (("controller_kind", "static", "la"),
                       ("hold_mode", "deterministic", "exponential")):
        value = getattr(config, name)
        need(isinstance(value, str) and value in (a, b),  # no array's == reaches `in`
             name, f"be {a!r} or {b!r}")
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
