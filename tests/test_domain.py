import io
import json
import math
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synsim import (DefenseParams, SimConfig, TrafficModel, config_from_dict,
                    load_config, run_simulation, validate_config)
from synsim import controller
from synsim.engine import replay_trace


def _cfg(**kw):
    defaults = dict(master_seed=1)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_paper_baseline_is_valid():
    cfg = _cfg(traffic=TrafficModel(lambda1=10, k=1, mu=100),
               initial_params=DefenseParams(75.0, 128),
               total_requests=50000, controller_kind="static")
    assert validate_config(cfg) == []


def test_zero_hold_time_rejected():
    with pytest.raises(ValueError, match="h must be strictly positive"):
        _cfg(initial_params=DefenseParams(0.0, 128))


def test_window_larger_than_run_rejected():
    with pytest.raises(ValueError,
                       match="total_requests must be a positive multiple of window_size"):
        _cfg(total_requests=500, window_size=1000)


def test_all_violations_reported_not_just_first():
    with pytest.raises(ValueError, match="^invalid config: ") as error:
        _cfg(traffic=TrafficModel(lambda1=-1, k=-2, mu=0),
             initial_params=DefenseParams(-1.0, 0))
    assert len(str(error.value).split("; ")) >= 5


def test_validation_is_total_on_weird_inputs():
    # every rule is checked, and a bad value is a ValueError, never another exception
    with pytest.raises(ValueError, match="^invalid config: ") as error:
        _cfg(controller_kind="bogus", hold_mode="bogus", window_size="bogus")
    assert all(name in str(error.value)
               for name in ("window_size", "controller_kind", "hold_mode"))


def test_an_invalid_config_cannot_be_built():
    # built, replaced into or loaded: each way raises, naming the field
    with pytest.raises(ValueError, match="^invalid config: h must be strictly positive$"):
        SimConfig(master_seed=1, initial_params=DefenseParams(0.0, 64))
    with pytest.raises(ValueError, match="^invalid config: window_size must be at least 1$"):
        replace(SimConfig(master_seed=1), window_size=0)
    with pytest.raises(ValueError, match="^invalid config: h must be a finite number$"):
        config_from_dict({"master_seed": 1, "initial_params": {"h": None, "m": 64}})


@given(st.floats(0, 1e6, allow_nan=False), st.floats(0, 1e3, allow_nan=False))
def test_lambda2_is_exactly_derived(lambda1, k):
    t = TrafficModel(lambda1=lambda1, k=k, mu=100.0)
    assert t.lambda2 == k * lambda1


def test_config_from_json_round_trip(tmp_path):
    doc = {
        "master_seed": 42,
        "traffic": {"lambda1": 10, "k": 0.5, "mu": 100},
        "total_requests": 2000,
        "window_size": 500,
        "controller_kind": "static",
        "initial_params": {"h": 10, "m": 64},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.master_seed == 42
    assert cfg.traffic.k == 0.5
    assert cfg.initial_params == DefenseParams(10.0, 64)
    assert type(cfg.initial_params.h) is float  # an int h is loaded as a float
    # untouched fields keep their defaults
    assert cfg.hold_mode == "deterministic"


def test_master_seed_is_required():
    with pytest.raises(ValueError, match="master_seed"):
        config_from_dict({"total_requests": 100})


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"master_seed": 1, "typo_field": 3})


NAN, INF = math.nan, math.inf
BASE = SimConfig(master_seed=1)


def _traffic(**kw):
    return replace(BASE, traffic=replace(BASE.traffic, **kw))


def _loaded(**doc):
    return config_from_dict({"master_seed": 1, **doc})


# each row's config is a thunk: building the config is what raises
@pytest.mark.parametrize("config, field", [
    (partial(_traffic, lambda1=NAN), "lambda1"),
    (partial(_traffic, lambda1=INF), "lambda1"),
    (partial(_traffic, lambda1=0.0), "lambda1"),
    (partial(_traffic, k=NAN), "k"),
    (partial(_traffic, k=INF), "k"),
    (partial(_traffic, mu=NAN), "mu"),
    (partial(_traffic, mu=INF), "mu"),
    (partial(replace, BASE, initial_params=DefenseParams(NAN, 128)), "h"),
    (partial(replace, BASE, initial_params=DefenseParams(INF, 128)), "h"),
    (partial(replace, BASE, initial_params=DefenseParams(75.0, 2.5)), "m"),
    # each rule no other row reaches, once
    (partial(_traffic, lambda1=True), "lambda1"),  # a JSON true is not a number
    (partial(_traffic, k=-1.0), "k"),
    (partial(_traffic, mu=0.0), "mu"),
    (partial(replace, BASE, initial_params=DefenseParams(-1.0, 128)), "h"),
    (partial(replace, BASE, initial_params=DefenseParams(75.0, 0)), "m"),
    (partial(replace, BASE, window_size=0), "window_size"),
    (partial(replace, BASE, total_requests=500, window_size=1000), "total_requests"),
    (partial(replace, BASE, master_seed=1.5), "master_seed"),
    (partial(replace, BASE, window_size=500.5), "window_size"),
    (partial(replace, BASE, total_requests=True), "total_requests"),
    (partial(replace, BASE, master_seed=-1), "master_seed"),
    (partial(replace, BASE, total_requests=5300), "total_requests"),  # 10.6 windows
    # arrival times past the largest float: every window's Pr, Pa and J would be nan
    (partial(replace, BASE, traffic=TrafficModel(lambda1=1e-308, k=0.0), total_requests=4,
             window_size=4), "lambda1"),
    # loaded values that are not numbers are rejected when the config is built
    (partial(_loaded, initial_params={"h": True, "m": 128}), "h"),
    (partial(_loaded, initial_params={"h": "abc", "m": 128}), "h"),
    (partial(_loaded, initial_params={"h": None, "m": 128}), "h"),
    (partial(_loaded, initial_params={"h": [1], "m": 128}), "h"),
    (partial(replace, BASE, controller_kind="bogus"), "controller_kind"),
    (partial(replace, BASE, hold_mode="bogus"), "hold_mode"),
    (partial(_loaded, initial_params={"h": 10, "m": True}), "m"),
    (partial(_loaded, initial_params={"h": 10**400, "m": 128}), "h"),  # past the float range
    (partial(_traffic, lambda1=10**400), "lambda1"),
    # an attack rate k * lambda1 past the largest float: every attack time would be 0.0
    (partial(replace, BASE, traffic=TrafficModel(lambda1=10.0, k=1e308), total_requests=1000),
     "k"),
    # a run of no arrivals, or of fewer than none, is no run
    (partial(replace, BASE, total_requests=0), "total_requests"),
    (partial(replace, BASE, total_requests=-500), "total_requests"),
    # a value of the wrong type for a nested field, not only a bad number in it
    (partial(SimConfig, master_seed=1, traffic=None), "traffic"),
    (partial(SimConfig, master_seed=1, initial_params=(75.0, 128)), "initial_params"),
    (partial(SimConfig, master_seed=1, traffic={"lambda1": 10}), "traffic"),
    (partial(replace, BASE, controller_kind=np.array(["la", "la"])), "controller_kind"),
    (partial(replace, BASE, hold_mode=np.array(["deterministic", "exponential"])), "hold_mode"),
    # an m past the float range: the settle's and the oracle's divisions by it overflow
    (partial(replace, BASE, initial_params=DefenseParams(75.0, 10**309)), "m"),
])
def test_bad_config_rejected_naming_the_field(config, field):
    with pytest.raises(ValueError, match=f"^invalid config: {field} ") as error:
        config()
    violations = str(error.value).removeprefix("invalid config: ").split("; ")
    assert all(v.startswith(field + " ") for v in violations)


@pytest.mark.parametrize("doc, key", [
    ({"traffic": {"lambda1": 10, "typo": 1}}, "unknown traffic keys: \\['typo'\\]"),
    ({"initial_params": {"h": 10, "m": 64, "x": 0}}, "unknown initial_params keys"),
    # the action grids and steps are controller.py constants
    ({"la_settings": {"a": 0.1}}, "unknown config keys: \\['la_settings'\\]"),
    ({"initial_params": {"h": 10}}, "initial_params requires keys: \\['m'\\]"),
    ({"compare_mode": "best-so-far"}, "unknown config keys: \\['compare_mode'\\]"),
    ({"traffic": [10, 1, 100]}, "traffic must be an object"),
    # the J floor is the constant metrics.EPSILON_FLOOR
    ({"epsilon_floor": 1e-6}, "unknown config keys: \\['epsilon_floor'\\]"),
])
def test_bad_config_dict_rejected_naming_the_key(doc, key):
    with pytest.raises(ValueError, match=key):
        config_from_dict({"master_seed": 1, **doc})


@settings(max_examples=25, deadline=None)
@example(seed=0, lambda1=3.0, k=2.225073858507203e-309, mu=1.0, h=1.0, m=1, window=1,
         n_windows=1, kind="static", hold_mode="deterministic")  # a subnormal attack share
@given(
    seed=st.integers(0, 2**32 - 1),
    lambda1=st.floats(0.01, 100.0),
    k=st.floats(0.0, 5.0),
    mu=st.floats(0.01, 200.0),
    h=st.floats(0.01, 100.0),
    m=st.integers(1, 64),
    window=st.integers(1, 400),
    n_windows=st.integers(1, 5),
    kind=st.sampled_from(["static", "la"]),
    hold_mode=st.sampled_from(["deterministic", "exponential"]),
)
def test_valid_configs_give_meaningful_runs(seed, lambda1, k, mu, h, m, window,
                                            n_windows, kind, hold_mode):
    total = window * n_windows
    config = SimConfig(master_seed=seed, traffic=TrafficModel(lambda1, k, mu),
                       total_requests=total, window_size=window,
                       controller_kind=kind, initial_params=DefenseParams(h, m),
                       hold_mode=hold_mode)
    assert validate_config(config) == []
    trace = io.StringIO()
    with mock.patch.object(controller, "M_ACTIONS", (1, 8, 64)):  # LA capacities as small as m
        report = run_simulation(config, event_trace=trace)
    assert replay_trace(trace.getvalue()) == report.totals  # blocks included
    t = report.totals
    for cls in t.arrivals:
        assert t.admitted[cls] == t.completed[cls] + t.expired[cls]
        assert t.admitted[cls] + t.blocked[cls] == t.arrivals[cls]
    assert sum(t.arrivals.values()) == total
    c = report.cumulative
    assert c.arrivals_regular + c.arrivals_attack == total
    for w in report.windows + [report.cumulative]:
        assert 0.0 <= w.Ploss <= 1.0
        assert all(math.isfinite(x) for x in (w.Pr, w.Pa, w.J))


# -- the config boundary as a property -----------------------------------------

FIELDS = {"master_seed", "traffic", "lambda1", "k", "mu", "initial_params", "h", "m",
          "total_requests", "window_size", "controller_kind", "hold_mode"}
FLOAT_EDGES = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.0, 3.0, 1e300,
               1.7976931348623157e308, INF, -INF, NAN, -1.0)
INT_EDGES = (-1, 0, 1, 2, 7, 64, 1000, 2**63, 10**400)
INT_TYPES = (np.int64, np.uint64, np.int8)
NUMBER_TYPES = (np.float64, np.float32, *INT_TYPES)


def _numbers(*values, dtypes=NUMBER_TYPES):
    """values as Python numbers and as numpy scalars of each dtype that holds them."""
    scalars = []
    for value in values:
        for dtype in dtypes:
            if isinstance(value, float) and not issubclass(dtype, np.floating):
                continue  # an int dtype would truncate it
            try:
                with np.errstate(over="ignore"):  # a float32 past its range is inf
                    scalars.append(dtype(value))
            except OverflowError:  # an int the dtype cannot hold
                pass
    return st.one_of(st.sampled_from(values), st.sampled_from(scalars))


def _choices(*choices):
    return st.sampled_from([*choices, *map(np.str_, choices)])


# a value of a type no field takes
WRONG_TYPE = st.one_of(st.booleans(), st.just(np.True_), st.none(), st.just("bogus"),
                       st.tuples(st.integers(0, 3)),
                       st.dictionaries(st.just("a"), st.integers(0, 3)))
# each field's values from the edges of its range: a config of these alone is mostly accepted
IN_RANGE = {
    "master_seed": _numbers(0, 7, 2**63, 10**400, dtypes=INT_TYPES),
    "lambda1": _numbers(0.5, 3.0, 1e300, 1.7976931348623157e308, 7, 2**63),
    "k": _numbers(0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 3.0, 1e300, 0, 7),
    "mu": _numbers(5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 3.0, 1e300,
                   1.7976931348623157e308, 7),
    "h": _numbers(5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 3.0, 1e300,
                  1.7976931348623157e308, 7),
    "m": _numbers(1, 2, 7, 64, 1000, 2**63, 10**400, dtypes=INT_TYPES),
    "total_requests": _numbers(1000, 1, dtypes=INT_TYPES),
    "window_size": _numbers(1000, 8, 1, dtypes=INT_TYPES),
    "controller_kind": _choices("static", "la"),
    "hold_mode": _choices("deterministic", "exponential"),
}
# ... and from anywhere: any edge, numpy scalar or wrong type (at most 1000 arrivals,
# since a larger count is accepted and runs that long)
ANYWHERE = {name: st.one_of(values, WRONG_TYPE) for name, values in IN_RANGE.items()}
for name in ("master_seed", "lambda1", "k", "mu", "h", "m", "window_size"):
    ANYWHERE[name] = st.one_of(ANYWHERE[name], _numbers(*FLOAT_EDGES, *INT_EDGES))
ANYWHERE["total_requests"] = st.one_of(ANYWHERE["total_requests"],
                                       _numbers(-1, 0, 7, 1000.0, NAN))


def _config_fields(wild):
    """The fields named in wild drawn from anywhere, the rest in range; a
    wild traffic or initial_params is a wrong type, else it is built of its
    drawn fields."""
    drawn = {name: (ANYWHERE if name in wild else IN_RANGE)[name] for name in IN_RANGE}
    drawn.update({name: WRONG_TYPE for name in ("traffic", "initial_params") if name in wild})
    return st.fixed_dictionaries(drawn)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(sorted(FIELDS)), max_size=2).flatmap(_config_fields))
@example({"master_seed": 0, "lambda1": 1e308, "k": 1.0, "mu": 100.0, "h": 75.0, "m": 128,
          "total_requests": 1000, "window_size": 8, "controller_kind": "la",
          "hold_mode": "deterministic"})  # the arrival rate lambda1 * (1 + k) overflows
@example({"master_seed": 0, "lambda1": 3.0, "k": 1.0, "mu": 100.0, "h": 75.0, "m": 10**400,
          "total_requests": 1000, "window_size": 8, "controller_kind": "static",
          "hold_mode": "deterministic"})  # an m past the float range, in force
def test_a_config_is_rejected_naming_a_field_or_gives_a_meaningful_run(f):
    try:
        config = SimConfig(
            master_seed=f["master_seed"],
            traffic=f.get("traffic", TrafficModel(f["lambda1"], f["k"], f["mu"])),
            initial_params=f.get("initial_params", DefenseParams(f["h"], f["m"])),
            total_requests=f["total_requests"], window_size=f["window_size"],
            controller_kind=f["controller_kind"], hold_mode=f["hold_mode"])
    except ValueError as error:
        message = str(error)
        assert message.startswith("invalid config: ")
        violations = message.removeprefix("invalid config: ").split("; ")
        assert all(v.split(" ", 1)[0] in FIELDS for v in violations), message
        return
    trace = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_simulation(config, event_trace=trace)
    assert replay_trace(trace.getvalue()) == report.totals  # blocks included
    t = report.totals
    for cls in t.arrivals:
        assert t.admitted[cls] == t.completed[cls] + t.expired[cls]
        assert t.admitted[cls] + t.blocked[cls] == t.arrivals[cls]
    assert sum(t.arrivals.values()) == config.total_requests
    for w in report.windows + [report.cumulative]:
        assert 0.0 <= w.Ploss <= 1.0
        assert 0.0 <= w.Pr <= 1.0 and 0.0 <= w.Pa <= 1.0
        assert 0.0 < w.window_duration < INF
