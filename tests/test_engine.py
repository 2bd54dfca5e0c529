import hashlib
import io

import numpy as np
import pytest

from synsim.domain import DefenseParams, RequestClass, SimConfig, TrafficModel
from synsim.engine import BacklogState, ConservationError, _ExpStream, run_simulation
from synsim.harness import trace_ordering_ok, window_csv
from synsim.oracle import erlang_b

REG = RequestClass.REGULAR
ATT = RequestClass.ATTACK


def make_state(h=75.0, m=128, hold_mode="deterministic", mu=100.0, seed=0):
    return BacklogState(DefenseParams(h, m), hold_mode, mu,
                        np.random.default_rng(seed))


# -- backlog mechanics -------------------------------------------------------

def test_admit_below_capacity():
    state = make_state(m=128)
    for i in range(127):
        assert state.admit_or_block(ATT, 0.0) is not None
    assert state.admit_or_block(REG, 0.0) is not None


def test_block_at_capacity():
    state = make_state(m=128)
    for _ in range(128):
        state.admit_or_block(ATT, 0.0)
    assert state.admit_or_block(REG, 0.0) is None
    assert state.blocked[REG] == 1


def test_shrunk_capacity_blocks_until_drained():
    state = make_state(h=100.0, m=1024)
    for _ in range(130):
        state.admit_or_block(ATT, 0.0)
    summary = state.apply_defense_params(DefenseParams(100.0, 64), 1.0)
    assert (summary.regular, summary.attack) == (0, 0)  # shrink never evicts
    assert len(state.heap) == 130                       # transient overshoot
    assert state.admit_or_block(ATT, 1.0) is None       # still over the new cap


def test_identity_param_change_evicts_nothing():
    state = make_state(h=75.0, m=128)
    for _ in range(10):
        state.admit_or_block(ATT, 0.0)
    summary = state.apply_defense_params(DefenseParams(75.0, 128), 5.0)
    assert (summary.regular, summary.attack) == (0, 0)
    assert len(state.heap) == 10


def test_retroactive_h_evicts_aged_residents():
    state = make_state(h=100.0, m=128)
    state.admit_or_block(ATT, 0.0)    # age 80 at t=80
    state.advance_to(70.0)
    state.admit_or_block(ATT, 70.0)   # age 10
    state.advance_to(78.0)
    state.admit_or_block(ATT, 78.0)   # age 2
    state.advance_to(80.0)
    summary = state.apply_defense_params(DefenseParams(5.0, 128), 80.0)
    assert summary.attack == 2
    # the heap is exactly the resident set: no stale items are left behind
    assert len(state.heap) == sum(state.occupancy) == 1
    dep, _, survivor = state.heap[0]
    assert dep == survivor.dep
    assert survivor.admit == 78.0 and survivor.dep == pytest.approx(83.0)


def test_capacity_growth_is_eviction_free_and_immediate():
    state = make_state(h=75.0, m=128)
    for _ in range(128):
        state.admit_or_block(ATT, 0.0)
    summary = state.apply_defense_params(DefenseParams(75.0, 1024), 1.0)
    assert (summary.regular, summary.attack) == (0, 0)
    assert state.admit_or_block(ATT, 1.0) is not None


def test_advance_to_accumulates_normalized_occupancy():
    state = make_state(m=128)
    for _ in range(64):
        state.admit_or_block(REG, 0.0)
    state.advance_to(2.0)
    assert state.integral[REG] == pytest.approx(1.0)
    state.advance_to(2.0)  # zero interval: no change
    assert state.integral[REG] == pytest.approx(1.0)


def test_advance_to_symmetric_half_occupancy():
    state = make_state(m=2, h=100.0)
    state.admit_or_block(REG, 0.0)
    state.admit_or_block(ATT, 0.0)
    state.advance_to(3.0)
    assert state.integral[REG] == pytest.approx(1.5)
    assert state.integral[ATT] == pytest.approx(1.5)


# -- arrival sampling --------------------------------------------------------

def test_arrival_times_are_the_running_sum_of_draws():
    gaps = _ExpStream(np.random.default_rng(7), 3.0, block=4)
    times = _ExpStream(np.random.default_rng(7), 3.0, block=4).times()
    t = 0.0
    for _ in range(4 * 5 + 3):  # across five refills
        t += gaps.draw()
        assert next(times) == t  # bit for bit


def test_zero_rate_stream_never_fires():
    stream = _ExpStream(np.random.default_rng(7), 0.0, block=4)
    assert stream.draw() == np.inf
    times = stream.times()
    assert [next(times) for _ in range(10)] == [np.inf] * 10


# -- full runs ---------------------------------------------------------------

def cfg(**kw):
    defaults = dict(master_seed=12345, total_requests=5000, window_size=500,
                    controller_kind="static",
                    traffic=TrafficModel(lambda1=10, k=1, mu=100))
    defaults.update(kw)
    return SimConfig(**defaults)


def test_no_attack_stream_means_zero_pa():
    report = run_simulation(cfg(traffic=TrafficModel(10, 0.0, 100)))
    assert all(w.Pa == 0.0 for w in report.windows)
    assert all(w.arrivals_attack == 0 for w in report.windows)


def test_window_count_and_cumulative_sums():
    # a partial last window would leave its arrivals out of every window
    with pytest.raises(ValueError, match="total_requests must be a multiple"):
        run_simulation(cfg(total_requests=5300))
    report = run_simulation(cfg(total_requests=5000))
    assert len(report.windows) == 10
    c = report.cumulative
    assert c.arrivals_regular == sum(w.arrivals_regular for w in report.windows)
    assert c.blocked_attack == sum(w.blocked_attack for w in report.windows)
    assert c.arrivals_regular + c.arrivals_attack == 5000


@pytest.mark.parametrize("kind", ["static", "la"])
@pytest.mark.parametrize("hold_mode", ["deterministic", "exponential"])
def test_conservation_per_class(kind, hold_mode):
    report = run_simulation(cfg(controller_kind=kind, hold_mode=hold_mode))
    t = report.totals
    for cls in (REG, ATT):
        assert t.admitted[cls] == t.completed[cls] + t.expired[cls]
        assert t.admitted[cls] + t.blocked[cls] == t.arrivals[cls]
    assert t.arrivals[REG] + t.arrivals[ATT] == 5000


def test_attack_entries_never_complete():
    report = run_simulation(cfg(controller_kind="la", total_requests=10000))
    assert report.totals.completed[ATT] == 0


def test_reports_are_bit_identical_across_runs():
    a = run_simulation(cfg(controller_kind="la"))
    b = run_simulation(cfg(controller_kind="la"))
    assert a.windows == b.windows
    assert a.param_trajectory == b.param_trajectory
    assert a.horizon == b.horizon


def test_controller_does_not_perturb_traffic():
    # shared seed: both controllers see the same arrival sample path
    a = run_simulation(cfg(controller_kind="static"))
    b = run_simulation(cfg(controller_kind="la"))
    assert a.horizon == b.horizon
    assert [w.arrivals_regular for w in a.windows] == \
           [w.arrivals_regular for w in b.windows]


def test_occupancy_shares_are_proper_fractions():
    report = run_simulation(cfg(total_requests=20000))
    for w in report.windows:
        assert 0.0 <= w.Pr <= 1.0
        assert 0.0 <= w.Pa <= 1.0
        assert w.Pr + w.Pa <= 1.0 + 1e-9


def test_exponential_hold_matches_erlang_b_smoke():
    config = cfg(traffic=TrafficModel(lambda1=5, k=0.0, mu=1),
                 hold_mode="exponential", total_requests=200_000,
                 window_size=1000, initial_params=DefenseParams(1e9, 10))
    report = run_simulation(config)
    assert report.cumulative.Ploss == pytest.approx(erlang_b(10, 5.0), abs=0.01)


def test_event_trace_replays_identically():
    traces = []
    for _ in range(2):
        buf = io.StringIO()
        run_simulation(cfg(controller_kind="la"), event_trace=buf)
        traces.append(buf.getvalue())
    assert traces[0] == traces[1]
    assert trace_ordering_ok(traces[0])


def test_event_trace_occupancy_column_replays():
    buf = io.StringIO()
    report = run_simulation(cfg(controller_kind="la"), event_trace=buf)
    step = {"admit": 1, "block": 0, "complete": -1, "expire": -1}
    lines = {kind: 0 for kind in (*step, "params")}
    count = drops = drained = 0
    for line in buf.getvalue().splitlines():
        _, kind, _, occupancy, _, _ = line.split("\t")
        # departures after the last arrival and the last params line
        drained = drained + 1 if kind in ("complete", "expire") else 0
        occupancy = int(occupancy)
        lines[kind] += 1
        if kind == "params":
            # evictions caused by an h change are not traced line by line
            assert occupancy <= count
            drops += occupancy < count
        else:
            assert occupancy == count + step[kind]
        count = occupancy
    assert count == 0
    assert drops > 0  # the run does evict, so the params rule is exercised
    assert drained > 0  # the drain leaves departures to replay
    assert lines["admit"] == sum(report.totals.admitted.values())
    assert lines["complete"] == sum(report.totals.completed.values())


# sha256 of the window CSV followed by the event trace.  A change that moves
# the sample path on purpose records new digests and says so.
SAMPLE_PATH_SHA256 = {
    ("static", "deterministic", 0.0):
        "61afa64674ac5c5ed05a332ee725d7c01f9456ef24b4cc9a673e940f633f3ee8",
    ("static", "deterministic", 2.0):
        "d48ff69b8e34af6008c892ce976fd98f7191740fcb7ca826f64eb9a8c8397f4b",
    ("static", "exponential", 0.0):
        "758636a3c94deeac3a8f41572f950ed0c81af4054571e09e9c757a3ea57a4797",
    ("static", "exponential", 2.0):
        "57b88c1810b62d20d28cf37366a12f3a6c4edfc3e1cd9192d4332f69101041bb",
    ("la", "deterministic", 0.0):
        "d9068c7577715f5ab0664e9008123d671a19358e53254104cc66a9735778cabc",
    ("la", "deterministic", 2.0):
        "5b976784dba4850781bb25211bcdd1ffbce280aa1dbc703db77ab857b448b6fd",
    ("la", "exponential", 0.0):
        "b1c6e87a2a98ec72244e3ac99361f1d42c7ebb70bb2fae6f2af04e48c339339e",
    ("la", "exponential", 2.0):
        "a4663154c903d661384a038543b2bba7236e097a7580ba8a40052b951b555914",
}


@pytest.mark.parametrize("kind, hold_mode, k", sorted(SAMPLE_PATH_SHA256))
def test_sample_path_is_pinned(kind, hold_mode, k):
    config = cfg(master_seed=2024, total_requests=4000, controller_kind=kind,
                 hold_mode=hold_mode, traffic=TrafficModel(lambda1=10.0, k=k, mu=100.0))
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    text = window_csv(config, report) + buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        SAMPLE_PATH_SHA256[kind, hold_mode, k]


def test_no_params_change_after_the_last_window():
    # the controller's answer to the last window has no window to act on
    config = cfg(master_seed=2024, total_requests=4000, controller_kind="la",
                 hold_mode="deterministic",
                 traffic=TrafficModel(lambda1=10.0, k=2.0, mu=100.0))
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    rows = [line.split("\t") for line in buf.getvalue().splitlines()]
    last_arrival = max(i for i, row in enumerate(rows) if row[1] in ("admit", "block"))
    drain = rows[last_arrival + 1:]
    assert drain and all(row[1] in ("complete", "expire") for row in drain)
    _, last = report.param_trajectory[-1]
    assert {(int(row[4]), float(row[5])) for row in drain} == {(last.m, last.h)}


def test_ordering_scan_catches_inverted_tie_break():
    # arrival before a departure at the same instant must be flagged
    bad = ("1.5\tadmit\tregular\t3\t128\t75.0\n"
           "1.5\tcomplete\tregular\t2\t128\t75.0\n")
    assert not trace_ordering_ok(bad)


def test_invalid_config_is_rejected():
    with pytest.raises(ValueError, match="invalid config"):
        run_simulation(cfg(window_size=0))
