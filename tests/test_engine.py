import hashlib
import io
import itertools
import math
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from synsim.domain import DefenseParams, RequestClass, SimConfig, TrafficModel
from synsim.engine import (ADMIT, DEP, EVENT_LABELS, BacklogState, _ExpStream, _Lifetimes,
                           run_simulation)
from synsim.harness import trace_ordering_ok, window_csv
from synsim.oracle import erlang_b

REG = RequestClass.REGULAR
ATT = RequestClass.ATTACK


def make_state(h=75.0, m=128, hold_mode="deterministic", mu=100.0, seed=0):
    return BacklogState(DefenseParams(h, m), hold_mode, mu,
                        np.random.default_rng(seed))


def arrive(state, arrivals):
    """Offer (class, time) arrivals as one window and settle it, as run_simulation
    does; returns admit_or_block's answers and the settled events."""
    outcomes = [state.admit_or_block(cls, t) for cls, t in arrivals]
    times = np.array([t for _, t in arrivals])
    classes = np.array([cls for cls, _ in arrivals], np.int8)
    return outcomes, state.advance_to(times[-1], times, classes, outcomes)


# -- backlog mechanics -------------------------------------------------------

def test_admit_below_capacity():
    state = make_state(m=128)
    for i in range(127):
        assert state.admit_or_block(ATT, 0.0) is not None
    assert state.admit_or_block(REG, 0.0) is not None


def test_block_at_capacity():
    state = make_state(m=128)
    outcomes, _ = arrive(state, [(ATT, 0.0)] * 128 + [(REG, 0.0)])
    assert all(outcomes[:128])
    assert outcomes[128] is None
    assert state.blocked[REG] == 1
    assert state.admitted == [0, 128] and state.occupancy == [0, 128]


def test_departure_frees_its_slot_for_an_arrival_at_the_same_instant():
    state = make_state(h=5.0, m=1)
    just_before = np.nextafter(5.0, 0.0)
    outcomes, (times, codes, occupancy) = arrive(
        state, [(ATT, 0.0), (ATT, just_before), (ATT, 5.0)])
    assert outcomes == [True, None, True]
    # the departure at 5.0 is settled before the admission at 5.0
    assert times.tolist() == [0.0, just_before, 5.0, 5.0]
    assert [EVENT_LABELS[c] for c in codes] == [
        "admit\tattack", "block\tattack", "expire\tattack", "admit\tattack"]
    assert occupancy.tolist() == [1, 1, 0, 1]


def test_zero_lifetime_leaves_after_its_own_admission():
    # h under half an ulp of the clock: each entry times out when admitted
    state = make_state(h=1e-20, m=1)
    _, (times, codes, occupancy) = arrive(state, [(ATT, 1.0), (ATT, 2.0)])
    assert times.tolist() == [1.0, 1.0, 2.0]
    assert [EVENT_LABELS[c] for c in codes] == [
        "admit\tattack", "expire\tattack", "admit\tattack"]
    assert occupancy.tolist() == [1, 0, 1]
    # admitted at the window's last arrival, it leaves in the next window
    assert sum(state.occupancy) == 1
    _, (times, _, _) = arrive(state, [(ATT, 3.0)])
    assert times.tolist() == [2.0, 3.0]


def test_shrunk_capacity_blocks_until_drained():
    state = make_state(h=100.0, m=1024)
    arrive(state, [(ATT, 0.0)] * 130)
    summary = state.apply_defense_params(DefenseParams(100.0, 64), 1.0)
    assert (summary.regular, summary.attack) == (0, 0)  # shrink never evicts
    assert sum(state.occupancy) == 130                  # transient overshoot
    assert len(state.heap) == 64                        # one free-time per slot
    assert state.admit_or_block(ATT, 1.0) is None       # still over the new cap


def test_shrink_admits_after_occupancy_minus_new_cap_plus_one_departures():
    state = make_state(h=100.0, m=1024)
    arrive(state, [(ATT, i / 64) for i in range(130)])
    state.apply_defense_params(DefenseParams(100.0, 64), 3.0)
    departures = sorted(i / 64 + 100.0 for i in range(130))
    # 66 departures leave 64 residents: the buffer is still full
    assert state.admit_or_block(ATT, departures[65]) is None
    assert state.admit_or_block(ATT, np.nextafter(departures[66], 0.0)) is None
    # the 67th = 130 - 64 + 1 frees a slot at its own instant
    assert state.admit_or_block(ATT, departures[66]) is not None


def test_identity_param_change_evicts_nothing():
    state = make_state(h=75.0, m=128)
    arrive(state, [(ATT, 0.0)] * 10)
    heap = list(state.heap)
    summary = state.apply_defense_params(DefenseParams(75.0, 128), 5.0)
    assert (summary.regular, summary.attack) == (0, 0)
    assert sum(state.occupancy) == 10
    assert state.heap == heap


def test_retroactive_h_evicts_aged_residents():
    state = make_state(h=100.0, m=128)
    # ages 80, 10 and 2 at t=80
    arrive(state, [(ATT, 0.0), (ATT, 70.0), (ATT, 78.0)])
    summary = state.apply_defense_params(DefenseParams(5.0, 128), 80.0)
    assert summary.attack == 2
    assert state.expired[ATT] == 2 and sum(state.occupancy) == 1
    # the records and the heap hold the survivor alone, rescheduled under h=5
    assert state.records[ADMIT].tolist() == [78.0]
    assert state.records[DEP].tolist() == [83.0]
    assert sorted(state.heap) == [0.0] * 127 + [83.0]


def test_retroactive_eviction_counts_as_an_expiry():
    state = make_state(h=10.0, m=4, mu=1e30)  # the service time rounds to zero
    arrive(state, [(REG, 1.0)])  # completes at 1.0, after the window's last arrival
    summary = state.apply_defense_params(DefenseParams(5.0, 4), 1.0)
    assert summary.regular == 1
    assert (state.completed[REG], state.expired[REG]) == (0, 1)


def test_capacity_growth_is_eviction_free_and_immediate():
    state = make_state(h=75.0, m=128)
    arrive(state, [(ATT, 0.0)] * 128)
    assert state.admit_or_block(ATT, 1.0) is None
    summary = state.apply_defense_params(DefenseParams(75.0, 1024), 1.0)
    assert (summary.regular, summary.attack) == (0, 0)
    # every new slot admits at once
    assert all(state.admit_or_block(ATT, 1.0) for _ in range(1024 - 128))
    assert state.admit_or_block(ATT, 1.0) is None


def test_advance_to_accumulates_normalized_occupancy():
    state = make_state(m=128, mu=1e-9)  # no regular entry completes within 75 s
    arrive(state, [(REG, 0.0)] * 64 + [(ATT, 2.0)])
    assert state.integral[REG] == pytest.approx(1.0)
    arrive(state, [(ATT, 2.0)])  # zero interval: no change
    assert state.integral[REG] == pytest.approx(1.0)


def test_advance_to_symmetric_half_occupancy():
    state = make_state(m=2, h=100.0, mu=1e-9)
    outcomes, _ = arrive(state, [(REG, 0.0), (ATT, 0.0), (ATT, 3.0)])
    assert outcomes[2] is None
    assert state.integral[REG] == pytest.approx(1.5)
    assert state.integral[ATT] == pytest.approx(1.5)


def test_drain_settles_every_resident():
    state = make_state(h=10.0, m=8)
    arrive(state, [(ATT, 0.0), (REG, 1.0), (ATT, 2.0)])
    times, codes, occupancy = state.advance_to(np.inf)
    assert times.tolist() == sorted(times.tolist()) and len(times) == 2
    assert occupancy.tolist() == [1, 0]
    assert state.occupancy == [0, 0] and state.records.shape == (6, 0)
    assert state.completed[REG] + state.expired[REG] == 1
    assert state.expired[ATT] == 2


def reference_loop(windows, params, hold_mode, mu, seed):
    """The per-event loop the slot heap replaced: a heap of departures, each
    taken out, in (time, admission number) order, before the first arrival
    not earlier than it.  Returns the same observables as kernel_run."""
    stream = _ExpStream(np.random.default_rng(seed), 1.0)
    lifetimes = itertools.chain.from_iterable(stream.draw().tolist()
                                              for _ in itertools.count())
    heap, trace, integrals, evictions = [], [], [], []
    occupancy, integral, clock = [0, 0], [0.0, 0.0], 0.0
    counts = {kind: [0, 0] for kind in ("blocked", "completed", "expired")}

    def advance(t):
        nonlocal clock
        dt = t - clock
        if dt > 0.0:
            for cls in (0, 1):
                integral[cls] += dt * occupancy[cls] / params.m
        clock = t

    def schedule(admit, service, hold_unit, h):
        completion, timeout = admit + service, admit + hold_unit * h
        return (completion, 2) if completion < timeout else (timeout, 3)

    def depart(item, kind):
        occupancy[item[2]] -= 1
        counts["completed" if kind == 2 else "expired"][item[2]] += 1

    def pop_until(t):
        while heap and heap[0][0] <= t:
            item = heappop(heap)
            advance(item[0])
            depart(item, item[3])
            trace.append((item[0], 2 * item[3] + item[2], sum(occupancy)))

    number = 0
    for times, classes, new in windows:
        for t, cls in zip(times.tolist(), classes.tolist()):
            pop_until(t)
            advance(t)
            if sum(occupancy) < params.m:
                service = math.inf if cls else next(lifetimes) / mu
                hold_unit = next(lifetimes) if hold_mode == "exponential" else 1.0
                dep, kind = schedule(t, service, hold_unit, params.h)
                heappush(heap, (dep, number, cls, kind, t, service, hold_unit))
                number += 1
                occupancy[cls] += 1
                trace.append((t, cls, sum(occupancy)))
            else:
                counts["blocked"][cls] += 1
                trace.append((t, 2 + cls, sum(occupancy)))
        integrals.append(list(integral))
        evicted = [0, 0]
        if new.h != params.h:
            kept = []
            for item in heap:
                dep, kind = schedule(*item[4:], new.h)
                if dep <= t:
                    depart(item, 3)
                    evicted[item[2]] += 1
                else:
                    kept.append((dep, item[1], item[2], kind, *item[4:]))
            heap[:] = kept
            heapify(heap)
        params = new
        evictions.append(evicted)
    pop_until(math.inf)
    integrals.append(list(integral))
    return trace, integrals, evictions, counts, occupancy


def kernel_run(windows, params, hold_mode, mu, seed):
    state = make_state(params.h, params.m, hold_mode, mu, seed)
    trace, integrals, evictions = [], [], []
    for times, classes, new in windows:
        _, events = arrive(state, list(zip(classes.tolist(), times.tolist())))
        trace += zip(*(x.tolist() for x in events))
        integrals.append(list(state.integral))
        summary = state.apply_defense_params(new, float(times[-1]))
        evictions.append([summary.regular, summary.attack])
    trace += zip(*(x.tolist() for x in state.advance_to(np.inf)))
    integrals.append(list(state.integral))
    counts = {"blocked": state.blocked, "completed": state.completed,
              "expired": state.expired}
    return trace, integrals, evictions, counts, state.occupancy


@pytest.mark.parametrize("hold_mode", ["deterministic", "exponential"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_matches_the_per_event_reference_loop(hold_mode, seed):
    # arrivals on a quarter-second grid, with ties, and hold times on the
    # same grid, so departures and arrivals often share an instant
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.integers(0, 3, 3000)) / 4
    classes = rng.integers(0, 2, 3000).astype(np.int8)
    cuts = np.sort(rng.choice(np.arange(1, 3000), 60, replace=False))
    grid = [DefenseParams(h, m) for h in (0.5, 1.0, 2.5) for m in (1, 2, 5, 8)]
    windows = [(t, c, grid[rng.integers(len(grid))])
               for t, c in zip(np.split(times, cuts), np.split(classes, cuts))]
    args = (windows, grid[0], hold_mode, 2.0, seed)
    reference = reference_loop(*args)
    assert kernel_run(*args) == reference
    trace, _, evictions, _, _ = reference
    assert len(trace) > 3000 and sum(map(sum, evictions)) > 0


# -- arrival sampling --------------------------------------------------------

def test_arrival_times_are_the_running_sum_of_draws():
    gaps = _ExpStream(np.random.default_rng(7), 3.0, block=4)
    times = _ExpStream(np.random.default_rng(7), 3.0, block=4).times()
    t = 0.0
    for _ in range(6):  # across five refills
        for gap, time in zip(gaps.draw().tolist(), next(times).tolist(), strict=True):
            t += gap
            assert time == t  # bit for bit


def test_zero_rate_stream_never_fires():
    stream = _ExpStream(np.random.default_rng(7), 0.0, block=4)
    assert stream.draw().tolist() == [np.inf] * 4
    times = stream.times()
    assert [x for _ in range(3) for x in next(times).tolist()] == [np.inf] * 12


def test_lifetimes_settle_the_values_read_in_order():
    lifetimes = _Lifetimes(np.random.default_rng(7))
    reference = _ExpStream(np.random.default_rng(7), 1.0)
    expected = np.concatenate([reference.draw() for _ in range(3)]).tolist()
    read = [lifetimes.next() for _ in range(3)]
    assert lifetimes.settled(3).tolist() == read == expected[:3]
    assert lifetimes.settled(0).tolist() == []
    read = [lifetimes.next() for _ in range(2 * 8192)]  # across two refills
    assert lifetimes.settled(2 * 8192).tolist() == read == expected[3:3 + 2 * 8192]


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


# sha256 of the window CSV followed by the event trace, keyed by case id:
# kind-hold_mode-k, then the case's change to the shared config, if any.  A
# change that moves the sample path on purpose records new digests and says so.
SAMPLE_PATH_SHA256 = {
    "static-deterministic-0.0":
        "61afa64674ac5c5ed05a332ee725d7c01f9456ef24b4cc9a673e940f633f3ee8",
    "static-deterministic-2.0":
        "d48ff69b8e34af6008c892ce976fd98f7191740fcb7ca826f64eb9a8c8397f4b",
    "static-exponential-0.0":
        "758636a3c94deeac3a8f41572f950ed0c81af4054571e09e9c757a3ea57a4797",
    "static-exponential-2.0":
        "57b88c1810b62d20d28cf37366a12f3a6c4edfc3e1cd9192d4332f69101041bb",
    "la-deterministic-0.0":
        "d9068c7577715f5ab0664e9008123d671a19358e53254104cc66a9735778cabc",
    "la-deterministic-2.0":
        "5b976784dba4850781bb25211bcdd1ffbce280aa1dbc703db77ab857b448b6fd",
    "la-exponential-0.0":
        "b1c6e87a2a98ec72244e3ac99361f1d42c7ebb70bb2fae6f2af04e48c339339e",
    "la-exponential-2.0":
        "a4663154c903d661384a038543b2bba7236e097a7580ba8a40052b951b555914",
    "la-deterministic-2.0-overshoot":
        "6e3d312c2127fa63f735ad45f100ef12197ee6d57f252e1744ef7d1e4d878b7d",
    "la-exponential-2.0-window1":
        "2beec916842a62022138fbbacf03b47c7f4dd1adbaf1e6ddb0d855dc94e049bf",
}
CASE_CHANGES = {
    # m shrinks to 64 with 203 residents: they stay, over the new cap
    "la-deterministic-2.0-overshoot": dict(master_seed=1),
    # every arrival is a window, so the controller acts after each one
    "la-exponential-2.0-window1": dict(window_size=1),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_PATH_SHA256))
def test_sample_path_is_pinned(case):
    kind, hold_mode, k = case.split("-")[:3]
    config = cfg(**{"master_seed": 2024, "total_requests": 4000, "controller_kind": kind,
                    "hold_mode": hold_mode,
                    "traffic": TrafficModel(lambda1=10.0, k=float(k), mu=100.0),
                    **CASE_CHANGES.get(case, {})})
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    text = window_csv(config, report) + buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_PATH_SHA256[case]
    if case.endswith("overshoot"):
        rows = [line.split("\t") for line in buf.getvalue().splitlines()]
        assert any(row[1] == "params" and int(row[3]) > int(row[4]) for row in rows)


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
