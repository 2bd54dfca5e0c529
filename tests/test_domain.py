import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from synsim import (DefenseParams, LaSettings, SimConfig, TrafficModel,
                    config_from_dict, load_config, run_simulation, validate_config)


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
    cfg = _cfg(initial_params=DefenseParams(0.0, 128))
    assert "h must be strictly positive" in validate_config(cfg)


def test_window_larger_than_run_rejected():
    cfg = _cfg(total_requests=500, window_size=1000)
    assert "window exceeds total requests" in validate_config(cfg)


def test_all_violations_reported_not_just_first():
    cfg = _cfg(traffic=TrafficModel(lambda1=-1, k=-2, mu=0),
               initial_params=DefenseParams(-1.0, 0),
               epsilon_floor=0.0)
    violations = validate_config(cfg)
    assert len(violations) >= 5


def test_validation_is_total_on_weird_inputs():
    cfg = _cfg(controller_kind="bogus", hold_mode="bogus", window_size="bogus")
    violations = validate_config(cfg)
    assert violations  # returns a list, never raises


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
    assert cfg.epsilon_floor == 1e-6
    assert cfg.la_settings.h_actions[-1] == 75.0


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


def _la(**kw):
    return replace(BASE, la_settings=replace(BASE.la_settings, **kw))


def _loaded(**doc):
    return config_from_dict({"master_seed": 1, **doc})


@pytest.mark.parametrize("config, field", [
    (_traffic(lambda1=NAN), "lambda1"),
    (_traffic(lambda1=INF), "lambda1"),
    (_traffic(lambda1=0.0), "lambda1"),
    (_traffic(k=NAN), "k"),
    (_traffic(k=INF), "k"),
    (_traffic(mu=NAN), "mu"),
    (_traffic(mu=INF), "mu"),
    (replace(BASE, initial_params=DefenseParams(NAN, 128)), "h"),
    (replace(BASE, initial_params=DefenseParams(INF, 128)), "h"),
    (replace(BASE, initial_params=DefenseParams(75.0, 2.5)), "m"),
    (replace(BASE, epsilon_floor=NAN), "epsilon_floor"),
    (replace(BASE, epsilon_floor=INF), "epsilon_floor"),
    (_la(a=NAN), "reward step a"),
    (_la(b=NAN), "penalty step b"),
    (_la(b=INF), "penalty step b"),
    (_la(h_actions=(0.5, NAN)), "h_actions"),
    (_la(h_actions=(0.5, INF)), "h_actions"),
    (_la(m_actions=(64, 128.5)), "m_actions"),
    (replace(BASE, window_size=500.5), "window_size"),
    (replace(BASE, total_requests=True), "total_requests"),
    (replace(BASE, master_seed=-1), "master_seed"),
    (replace(BASE, total_requests=5300), "total_requests"),  # 10.6 windows
    # arrival times past the largest float: every window's Pr, Pa and J would be nan
    (replace(_traffic(lambda1=1e-308, k=0.0), total_requests=4, window_size=4), "lambda1"),
    # loaded values that are not numbers, or not grids, are kept for validation
    (_loaded(initial_params={"h": True, "m": 128}), "h"),
    (_loaded(initial_params={"h": "abc", "m": 128}), "h"),
    (_loaded(initial_params={"h": None, "m": 128}), "h"),
    (_loaded(initial_params={"h": [1], "m": 128}), "h"),
    (_la(h_actions=5), "h_actions"),
    (_la(m_actions=None), "m_actions"),
    (_loaded(la_settings={"h_actions": 5}), "h_actions"),
    (_loaded(initial_params={"h": 10**400, "m": 128}), "h"),  # past the float range
    (_traffic(lambda1=10**400), "lambda1"),
])
def test_bad_config_rejected_naming_the_field(config, field):
    violations = validate_config(config)
    assert violations and all(v.startswith(field + " ") for v in violations)
    with pytest.raises(ValueError, match=f"invalid config: {field} "):
        run_simulation(config)


@pytest.mark.parametrize("doc, key", [
    ({"traffic": {"lambda1": 10, "typo": 1}}, "unknown traffic keys: \\['typo'\\]"),
    ({"initial_params": {"h": 10, "m": 64, "x": 0}}, "unknown initial_params keys"),
    ({"la_settings": {"retain_on_favorable": True}},
     "unknown la_settings keys: \\['retain_on_favorable'\\]"),
    ({"initial_params": {"h": 10}}, "initial_params requires keys: \\['m'\\]"),
    ({"compare_mode": "best-so-far"}, "unknown config keys: \\['compare_mode'\\]"),
    ({"traffic": [10, 1, 100]}, "traffic must be an object"),
])
def test_bad_config_dict_rejected_naming_the_key(doc, key):
    with pytest.raises(ValueError, match=key):
        config_from_dict({"master_seed": 1, **doc})


@settings(max_examples=25, deadline=None)
@example(seed=0, lambda1=3.0, k=2.225073858507203e-309, mu=1.0, h=1.0, m=1, window=1,
         n_windows=1, kind="static", hold_mode="deterministic")  # attack times overflow
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
                       la_settings=LaSettings(m_actions=(1, 8, 64)),
                       hold_mode=hold_mode)
    assert validate_config(config) == []
    report = run_simulation(config)
    t = report.totals
    for cls in t.arrivals:
        assert t.admitted[cls] == (t.completed[cls] + t.expired[cls]
                                   + t.residents_at_drain[cls])
        assert t.admitted[cls] + t.blocked[cls] == t.arrivals[cls]
    assert sum(t.arrivals.values()) == total
    assert sum(t.residents_at_drain.values()) == 0
    c = report.cumulative
    assert c.arrivals_regular + c.arrivals_attack == total
    for w in report.windows + [report.cumulative]:
        assert 0.0 <= w.Ploss <= 1.0
        assert all(math.isfinite(x) for x in (w.Pr, w.Pa, w.J))
