import csv
import hashlib
import io
import math
import tracemalloc
from dataclasses import replace
from heapq import heapify, heappop, heappush

import numpy as np
import pytest

from synsim import engine
from synsim.controller import LaController, StaticController
from synsim.domain import DefenseParams, SimConfig, TrafficModel
from synsim.engine import (ADMIT, ATT, CLASS_LABEL, DEP, EVENT_LABELS, HOLD_UNIT, REG, SERVICE,
                           BacklogState, ConservationError, _ExpStream,
                           replay_trace, run_simulation, trace_events)
from synsim.harness import la_trace_csv, trace_ordering_ok, window_csv


class SampledState(BacklogState):
    """A backlog with the lifetime stream run_simulation draws its arrivals'
    units from: one (1, 2, n) draw per window, from the seed's own RNG."""

    def __init__(self, params, hold_mode, mu, seed):
        super().__init__(params)
        self.lifetimes = np.random.default_rng(seed), mu, hold_mode == "exponential"

    def offered(self, times, classes):
        """The records of one window's arrivals, not yet scheduled."""
        rng, mu, exponential_hold = self.lifetimes
        units = rng.standard_exponential((1, 2, len(times)))
        return engine._records(times, classes, units, mu, exponential_hold)


def make_state(h=75.0, m=128, hold_mode="deterministic", mu=100.0, seed=0):
    return SampledState(DefenseParams(h, m), hold_mode, mu, seed)


def arrive(state, arrivals):
    """Offer (class, time) arrivals as one window through state.step; returns
    the admission mask and the settled events."""
    times = np.array([t for _, t in arrivals])
    classes = np.array([cls for cls, _ in arrivals], np.int8)
    offered = state.offered(times, classes)
    admitted, departed = state.step(offered)
    return admitted, trace_events(departed, sum(state.occupancy), offered, admitted)


def drain(state):
    """Drain every resident, as run_simulation does after the last arrival;
    returns the traced events."""
    return trace_events(state.advance_to(np.inf), 0)


def admit(state, cls, t):
    """Offer one arrival at t as its own window and settle it; True if it is admitted."""
    return arrive(state, [(cls, t)])[0][0]


# -- backlog mechanics -------------------------------------------------------

def test_admit_below_capacity():
    state = make_state(m=128)
    for i in range(127):
        assert admit(state, ATT, 0.0)
    assert admit(state, REG, 0.0)


def test_block_at_capacity():
    state = make_state(m=128)
    admitted, _ = arrive(state, [(ATT, 0.0)] * 128 + [(REG, 0.0)])
    assert all(admitted[:128])
    assert not admitted[128]
    assert state.blocked[REG] == 1
    assert state.admitted == [0, 128] and state.occupancy == [0, 128]


def test_departure_frees_its_slot_for_an_arrival_at_the_same_instant():
    state = make_state(h=5.0, m=1)
    just_before = np.nextafter(5.0, 0.0)
    admitted, (times, codes, occupancy) = arrive(
        state, [(ATT, 0.0), (ATT, just_before), (ATT, 5.0)])
    assert admitted.tolist() == [True, False, True]
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
    assert not admit(state, ATT, 1.0)                   # still over the new cap
    assert len(state.heap) + state.unused == 64         # one entry per slot


def test_shrink_admits_after_occupancy_minus_new_cap_plus_one_departures():
    state = make_state(h=100.0, m=1024)
    arrive(state, [(ATT, i / 64) for i in range(130)])
    state.apply_defense_params(DefenseParams(100.0, 64), 3.0)
    departures = sorted(i / 64 + 100.0 for i in range(130))
    # 66 departures leave 64 residents: the buffer is still full
    assert not admit(state, ATT, departures[65])
    assert not admit(state, ATT, np.nextafter(departures[66], 0.0))
    # the 67th = 130 - 64 + 1 frees a slot at its own instant
    assert admit(state, ATT, departures[66])


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
    # every resident is rescheduled under h=5; the two past it depart at 80
    assert state.records[DEP].tolist() == [80.0, 80.0, 83.0]
    # the next settle takes them out as expiries, at 80, before its arrival
    _, (times, codes, occupancy) = arrive(state, [(ATT, 81.0)])
    assert times.tolist() == [80.0, 80.0, 81.0]
    assert [EVENT_LABELS[c] for c in codes] == ["expire\tattack"] * 2 + ["admit\tattack"]
    assert occupancy.tolist() == [2, 1, 2]
    assert state.expired[ATT] == 2
    # the records and the next window's slot index hold the survivor and the
    # new entry; that window's arrival at 82 takes an unused slot
    assert state.records[ADMIT].tolist() == [78.0, 81.0]
    assert state.records[DEP].tolist() == [83.0, 86.0]
    arrive(state, [(ATT, 82.0)])
    assert state.heap == [83.0, 86.0, 87.0] and len(state.heap) + state.unused == 128


def test_a_departure_at_the_h_change_keeps_its_own_cause():
    # only a departure before the change is an eviction, by timeout
    state = make_state(h=10.0, m=4, mu=1e30)  # the service time rounds to zero
    arrive(state, [(REG, 1.0)])  # completes at 1.0, after the window's last arrival
    summary = state.apply_defense_params(DefenseParams(5.0, 4), 1.0)
    assert summary.regular == 0
    _, (times, codes, _) = arrive(state, [(REG, 2.0)])
    assert times.tolist() == [1.0, 2.0]
    assert [EVENT_LABELS[c] for c in codes] == ["complete\tregular", "admit\tregular"]
    assert (state.completed[REG], state.expired[REG]) == (1, 0)


def test_capacity_growth_is_eviction_free_and_immediate():
    state = make_state(h=75.0, m=128)
    arrive(state, [(ATT, 0.0)] * 128)
    assert not admit(state, ATT, 1.0)
    summary = state.apply_defense_params(DefenseParams(75.0, 1024), 1.0)
    assert (summary.regular, summary.attack) == (0, 0)
    # every new slot admits at once
    assert all(admit(state, ATT, 1.0) for _ in range(1024 - 128))
    assert not admit(state, ATT, 1.0)


def test_advance_to_accumulates_normalized_occupancy():
    state = make_state(m=128, mu=1e-9)  # no regular entry completes within 75 s
    arrive(state, [(REG, 0.0)] * 64 + [(ATT, 2.0)])
    assert state.integral[REG] == pytest.approx(1.0)
    arrive(state, [(ATT, 2.0)])  # a zero-length window integrates nothing
    assert state.integral == [0.0, 0.0]


def test_advance_to_symmetric_half_occupancy():
    state = make_state(m=2, h=100.0, mu=1e-9)
    admitted, _ = arrive(state, [(REG, 0.0), (ATT, 0.0), (ATT, 3.0)])
    assert not admitted[2]
    assert state.integral[REG] == pytest.approx(1.5)
    assert state.integral[ATT] == pytest.approx(1.5)


def test_drain_settles_every_resident():
    state = make_state(h=10.0, m=8)
    arrive(state, [(ATT, 0.0), (REG, 1.0), (ATT, 2.0)])
    times, codes, occupancy = drain(state)
    assert times.tolist() == sorted(times.tolist()) and len(times) == 2
    assert occupancy.tolist() == [1, 0]
    assert state.occupancy == [0, 0] and state.records.shape == (6, 0)
    assert state.completed[REG] + state.expired[REG] == 1
    assert state.expired[ATT] == 2
    # a drain of no residents writes no trace lines
    assert engine._trace_lines(DefenseParams(10.0, 8), state.advance_to(np.inf), 0) == ""


def reference_loop(windows, params, hold_mode, mu, seed):
    """The per-event loop the slot heap replaced: a heap of departures, each
    taken out, in (time, admission number) order, before the first arrival
    not earlier than it.  Arrival i of a window takes its service and hold
    units from column i of one (2, n) draw per window, admitted or not.

    An h change reschedules every resident, and one due before the change
    departs at it, so the next pop takes it out and traces it.

    Returns the same observables as kernel_run; each window's integrals
    sum each resident's time in it / m, in admission-number order with the
    settle's reduction.  Also returns each window's integrals as a
    per-event `+=` of dt * occupancy / m builds them."""
    rng = np.random.default_rng(seed)
    heap, trace, integrals, evictions, event_integrals = [], [], [], [], []
    occupancy, integral, clock = [0, 0], [0.0, 0.0], 0.0
    counts = {kind: [0, 0] for kind in ("blocked", "completed", "expired")}

    def settle(resident, start, until):
        spans = [(min(item[0], until) - max(item[4], start)) / params.m for item in resident]
        classes = np.array([item[2] for item in resident], np.intp)
        integrals.append(np.bincount(classes, np.array(spans, float), minlength=2).tolist())
        event_integrals.append(list(integral))
        integral[:] = [0.0, 0.0]

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
        # the window's residents in admission-number order, and its start
        resident, start = sorted(heap, key=lambda item: item[1]), clock
        units = rng.standard_exponential((2, len(times))).tolist()
        for t, cls, service_unit, hold_unit in zip(times.tolist(), classes.tolist(), *units):
            pop_until(t)
            advance(t)
            if sum(occupancy) < params.m:
                service = math.inf if cls else service_unit / mu
                hold_unit = hold_unit if hold_mode == "exponential" else 1.0
                dep, kind = schedule(t, service, hold_unit, params.h)
                resident.append((dep, number, cls, kind, t, service, hold_unit))
                heappush(heap, resident[-1])
                number += 1
                occupancy[cls] += 1
                trace.append((t, cls, sum(occupancy)))
            else:
                counts["blocked"][cls] += 1
                trace.append((t, 2 + cls, sum(occupancy)))
        settle(resident, start, t)
        evicted = [0, 0]
        if new.h != params.h:
            for i, item in enumerate(heap):
                dep, kind = schedule(*item[4:], new.h)
                if dep < t:  # evicted: departs at t, taken out by the next pop
                    evicted[item[2]] += 1
                    dep = t
                heap[i] = (dep, item[1], item[2], kind, *item[4:])
            heapify(heap)
        params = new
        evictions.append(evicted)
    resident, start = sorted(heap, key=lambda item: item[1]), clock
    pop_until(math.inf)
    settle(resident, start, math.inf)
    return trace, integrals, evictions, counts, occupancy, event_integrals


def kernel_run(windows, params, hold_mode, mu, seed):
    state = make_state(params.h, params.m, hold_mode, mu, seed)
    trace, integrals, evictions = [], [], []
    for times, classes, new in windows:
        _, events = arrive(state, list(zip(classes.tolist(), times.tolist())))
        trace += zip(*(x.tolist() for x in events))
        integrals.append(list(state.integral))
        summary = state.apply_defense_params(new, float(times[-1]))
        evictions.append([summary.regular, summary.attack])
    trace += zip(*(x.tolist() for x in drain(state)))
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
    grid = [DefenseParams(h, m) for h in (0.5, 1.0, 2.5) for m in (1, 2, 5, 8, 10**9)]
    windows = [(t, c, grid[rng.integers(len(grid))])
               for t, c in zip(np.split(times, cuts), np.split(classes, cuts))]
    args = (windows, grid[0], hold_mode, 2.0, seed)
    *reference, event_integrals = reference_loop(*args)
    kernel = kernel_run(*args)
    assert kernel == tuple(reference)  # the eviction lines of each h change included
    # the span sums are the per-event integrals up to rounding
    integrals = kernel[1]
    assert all(math.isclose(a, b, rel_tol=1e-12) for pair in zip(integrals, event_integrals)
               for a, b in zip(*pair))
    trace, _, evictions, _, _ = reference
    assert len(trace) > 3000 and sum(map(sum, evictions)) > 0


def test_states_of_one_seed_give_every_arrival_the_same_lifetimes(monkeypatch):
    # lifetimes are drawn by arrival, so (h, m) and admission change none:
    # a static and an LA run of one seed get the same records in every window
    records, windows = engine._records, {}

    def recorded(times, classes, units, mu, exponential_hold):
        block = records(times, classes, units, mu, exponential_hold)
        windows[kind] += np.hsplit(block[:HOLD_UNIT + 1].copy(), len(units))
        return block

    monkeypatch.setattr(engine, "_records", recorded)
    reports = {}
    for kind in ("static", "la"):
        windows[kind] = []
        reports[kind] = run_simulation(cfg(controller_kind=kind, hold_mode="exponential"))
    assert len(windows["static"]) == len(windows["la"]) == 10
    for a, b in zip(windows["static"], windows["la"]):
        assert a.tobytes() == b.tobytes()  # times, classes, service and hold units, bit for bit
    blocked = [[(w.blocked_regular, w.blocked_attack) for w in reports[kind].windows]
               for kind in ("static", "la")]
    assert blocked[0] != blocked[1]  # the outcomes differ


def test_a_block_of_windows_draws_the_lifetimes_of_a_draw_per_window():
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0, 10, 3 * 400))
    classes = rng.integers(0, 2, 3 * 400).astype(np.int8)
    block_units = np.random.default_rng(4).standard_exponential((3, 2, 400))
    block = engine._records(times, classes, block_units, 2.0, True)
    draws = np.random.default_rng(4)
    units = np.concatenate([draws.standard_exponential((2, 400)) for _ in range(3)], axis=1)
    assert block[SERVICE].tobytes() == np.where(classes == 0, units[0] / 2.0, np.inf).tobytes()
    assert block[HOLD_UNIT].tobytes() == units[1].tobytes()


# -- arrival sampling --------------------------------------------------------

def test_arrival_times_do_not_depend_on_how_the_draws_are_chunked():
    stream = _ExpStream(np.random.default_rng(7), 0.25)
    times = np.concatenate((stream.take(3), stream.take(5000))).tolist()
    t, sums = 0.0, []
    for gap in np.random.default_rng(7).exponential(0.25, 5003).tolist():
        t += gap
        sums.append(t)
    assert times == sums  # bit for bit
    assert _ExpStream(np.random.default_rng(7), 0.25).take(5003).tolist() == sums


def test_stream_past_the_float_range_never_fires_again():
    # the second time overflows: inf, without an overflow warning
    first, *rest = _ExpStream(np.random.default_rng(0), 1 / 6.7e-309).take(100).tolist()
    assert math.isfinite(first) and rest == [np.inf] * 99


def test_the_arrivals_follow_the_traffic_law(monkeypatch):
    # regular arrivals at lambda1 and attack arrivals at k * lambda1: each
    # class's mean gap and the attack count within six standard errors
    n, lambda1, k = 240_000, 10.0, 2.0
    share = k / (1 + k)
    bounds = {"attack count": (n * share, 6 * math.sqrt(n * share * (1 - share))),
              "regular gap": (1 / lambda1, 6 / lambda1 / math.sqrt(n * (1 - share))),
              "attack gap": (1 / (k * lambda1), 6 / (k * lambda1) / math.sqrt(n * share))}
    seen = []
    records = engine._records

    def record(times, classes, *lifetimes):
        seen.append((times, classes))
        return records(times, classes, *lifetimes)

    monkeypatch.setattr(engine, "_records", record)
    run_simulation(cfg(total_requests=n, window_size=1000,
                       traffic=TrafficModel(lambda1=lambda1, k=k, mu=100.0)))
    times = np.concatenate([t for t, _ in seen])
    attack = np.concatenate([c for _, c in seen]) == 1
    assert len(times) == n
    observed = {"attack count": np.count_nonzero(attack),
                "regular gap": times[~attack][-1] / np.count_nonzero(~attack),
                "attack gap": times[attack][-1] / np.count_nonzero(attack)}
    for name, (expected, bound) in bounds.items():
        assert abs(observed[name] - expected) < bound, (name, observed[name])


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
    with pytest.raises(ValueError, match="total_requests must be a positive multiple"):
        run_simulation(cfg(total_requests=5300))
    report = run_simulation(cfg(total_requests=5000))
    assert len(report.windows) == 10
    c = report.cumulative
    assert c.arrivals_regular == sum(w.arrivals_regular for w in report.windows)
    assert c.blocked_attack == sum(w.blocked_attack for w in report.windows)
    assert c.arrivals_regular + c.arrivals_attack == 5000


def test_slot_heap_is_bounded_by_the_run_arrivals(monkeypatch):
    # the heap holds a window's starting residents and its admissions, not
    # one entry per slot of the 10**7
    advance_to, sizes = BacklogState.advance_to, []

    def settle(state, until):
        if until < np.inf:  # the heap and records as the window's admissions left them
            sizes.append((len(state.heap), state.records.shape[1]))
        return advance_to(state, until)

    monkeypatch.setattr(BacklogState, "advance_to", settle)
    tracemalloc.start()
    try:
        report = run_simulation(cfg(initial_params=DefenseParams(75.0, 10**7)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert report.cumulative.blocked_regular == report.cumulative.blocked_attack == 0
    assert len(sizes) == 10 and all(heap <= bound for heap, bound in sizes)


@pytest.mark.parametrize("kind", ["static", "la"])
@pytest.mark.parametrize("hold_mode", ["deterministic", "exponential"])
def test_conservation_per_class(kind, hold_mode):
    report = run_simulation(cfg(controller_kind=kind, hold_mode=hold_mode))
    t = report.totals
    for cls in (REG, ATT):
        assert t.admitted[cls] == t.completed[cls] + t.expired[cls]
        assert t.admitted[cls] + t.blocked[cls] == t.arrivals[cls]
    assert t.arrivals[REG] + t.arrivals[ATT] == 5000


def test_audit_catches_a_lost_record(monkeypatch):
    # a departed record that depart never counts is gone from the records,
    # so the residents no longer make up the admissions
    pop_due = BacklogState.pop_due
    monkeypatch.setattr(BacklogState, "pop_due", lambda state, until: pop_due(state, until)[:, 1:])
    with pytest.raises(ConservationError, match="admitted != completed"):
        run_simulation(cfg())


def test_window_shares_are_exact_per_window():
    # one-arrival windows: each window's Pr and Pa against the per-class
    # occupancy replayed from the event trace, integrated per window by fsum
    config = cfg(master_seed=2024, total_requests=4000, window_size=1,
                 hold_mode="exponential", traffic=TrafficModel(lambda1=10.0, k=2.0, mu=100.0))
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    step = {"admit": 1, "block": 0, "complete": -1, "expire": -1}
    occupancy, areas, start, clock, shares = [0, 0], [[], []], 0.0, 0.0, []
    for line in buf.getvalue().splitlines():
        t, kind, label = line.split("\t")[:3]
        t = float(t)
        for cls in (REG, ATT):
            areas[cls].append(occupancy[cls] * (t - clock) / config.initial_params.m)
        clock = t
        occupancy[CLASS_LABEL.index(label)] += step[kind]
        if kind in ("admit", "block"):  # a window ends at its one arrival
            shares.append([min(math.fsum(area) / (t - start), 1.0) for area in areas])
            areas, start = [[], []], t
    assert len(shares) == len(report.windows) == 4000
    for w, (pr, pa) in zip(report.windows, shares):
        assert math.isclose(w.Pr, pr, rel_tol=1e-12)
        assert math.isclose(w.Pa, pa, rel_tol=1e-12)


def test_a_timeout_past_the_float_range_never_fires():
    # hold unit * h overflows to inf: the entry never times out, as in
    # deterministic mode, where the timeout is h itself
    config = cfg(hold_mode="exponential", initial_params=DefenseParams(1e308, 128),
                 total_requests=1000, window_size=100)
    report = run_simulation(config)  # audited: admitted == completed + expired
    assert all(math.isfinite(x) for w in report.windows for x in (w.Ploss, w.Pr, w.Pa))
    assert report.windows == run_simulation(replace(config, hold_mode="deterministic")).windows


@pytest.mark.parametrize("hold_mode", ["deterministic", "exponential"])
def test_a_service_past_the_float_range_never_completes(hold_mode):
    # service unit / mu overflows to inf: the entry can only time out
    report = run_simulation(cfg(hold_mode=hold_mode, traffic=TrafficModel(10.0, 1.0, 5e-324),
                                total_requests=1000, window_size=100))
    assert report.totals.completed[REG] == 0 and report.totals.expired[REG] > 0
    assert all(math.isfinite(x) for w in report.windows for x in (w.Ploss, w.Pr, w.Pa))


def test_attack_entries_never_complete():
    report = run_simulation(cfg(controller_kind="la", total_requests=10000))
    assert report.totals.completed[ATT] == 0


def test_controller_does_not_perturb_traffic():
    # shared seed: both controllers see the same arrival sample path (the
    # lifetimes each arrival gets are checked by the test of one seed's states)
    a, b = (run_simulation(cfg(controller_kind=kind, hold_mode="exponential"))
            for kind in ("static", "la"))
    # the windows end at the same arrivals
    assert [w.window_duration for w in a.windows] == [w.window_duration for w in b.windows]
    assert [(w.arrivals_regular, w.arrivals_attack) for w in a.windows] == \
           [(w.arrivals_regular, w.arrivals_attack) for w in b.windows]
    assert a.totals.blocked != b.totals.blocked  # the outcomes differ


def test_occupancy_shares_are_proper_fractions():
    report = run_simulation(cfg(total_requests=20000))
    for w in report.windows:
        assert 0.0 <= w.Pr <= 1.0
        assert 0.0 <= w.Pa <= 1.0
        assert w.Pr + w.Pa <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", ["static", "la"])
@pytest.mark.parametrize("hold_mode", ["deterministic", "exponential"])
@pytest.mark.parametrize("window_size", [200, 1])
def test_writing_the_event_trace_leaves_the_report_unchanged(kind, hold_mode, window_size):
    # the trace orders events on its own path; the settle never depends on it
    config = cfg(controller_kind=kind, hold_mode=hold_mode, window_size=window_size,
                 total_requests=1000)
    plain = run_simulation(config)
    traced = run_simulation(config, event_trace=io.StringIO())
    assert traced.windows == plain.windows
    assert traced.param_trajectory == plain.param_trajectory
    assert traced.totals == plain.totals


def test_event_trace_occupancy_column_replays(monkeypatch):
    # every occupancy change is a line, so the trace replays to the run's
    # totals, and the expire lines right after a params line are its evictions
    apply, evictions = BacklogState.apply_defense_params, {}

    def record(state, new, now):  # the evictions of each change, keyed by its instant
        changed = new != state.params
        summary = apply(state, new, now)
        if changed:
            evictions[now] = [summary.regular, summary.attack]
        return summary

    monkeypatch.setattr(BacklogState, "apply_defense_params", record)
    buf = io.StringIO()
    report = run_simulation(cfg(controller_kind="la"), event_trace=buf)
    assert replay_trace(buf.getvalue()) == report.totals
    traced_evictions, change = {}, None  # the evictions traced after each params line
    rows = [line.split("\t") for line in buf.getvalue().splitlines()]
    for t, kind, label, *_ in rows:
        if kind == "params":
            change = t
            traced_evictions[float(t)] = [0, 0]
        elif kind == "expire" and t == change:
            traced_evictions[float(t)][CLASS_LABEL.index(label)] += 1
        else:
            change = None
    assert traced_evictions == evictions
    assert sum(map(sum, evictions.values())) > 0  # the run does evict
    assert rows[-1][1] in ("complete", "expire")  # the drain leaves departures to replay


def tsv(*lines):
    """Event-trace text of space-separated lines."""
    return "".join(line.replace(" ", "\t") + "\n" for line in lines)


def retyped(lines, kind, new_kind, step):
    """lines with the first `kind` line made a `new_kind` line, its occupancy moved
    by step; returns the text and the line's number."""
    i = next(i for i, line in enumerate(lines) if line.split("\t")[1] == kind)
    t, _, label, occupancy, m_h = lines[i].split("\t", 4)
    lines[i] = "\t".join((t, new_kind, label, str(int(occupancy) + step), m_h))
    return "".join(lines), i + 1


def cut_before_the_drain(lines):
    last = max(i for i, line in enumerate(lines) if line.split("\t")[1] in ("admit", "block"))
    return "".join(lines[:last + 1]), last + 1


def first_admit_deleted(lines):
    i = next(i for i, line in enumerate(lines) if "\tadmit\t" in line)
    del lines[i]
    return "".join(lines), i + 1  # the line after it reads one resident too many


def time_decreases(lines):
    lines[1] = "0.0\t" + lines[1].split("\t", 1)[1]
    return "".join(lines), 2


@pytest.mark.parametrize("corrupt, rule", [
    (lambda lines: retyped(lines, "block", "admit", 1), "admit at capacity"),
    (lambda lines: retyped(lines, "admit", "block", -1), "block below capacity"),
    (first_admit_deleted, "occupancy 2 is not the running count 1"),
    (time_decreases, "time decreases"),
    (cut_before_the_drain, "the trace ends with 128 residents"),
    # the old inverted tie: an arrival, then a departure of another class at its instant
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "1.5 admit regular 2 128 75.0",
                    "1.5 expire attack 1 128 75.0", "2.0 complete regular 0 128 75.0"), 3),
     "expire after an arrival at its instant"),
    # an admission has one zero-lifetime departure
    (lambda _: (tsv("0.5 admit regular 1 128 75.0", "1.5 admit regular 2 128 75.0",
                    "1.5 complete regular 1 128 75.0", "1.5 complete regular 0 128 75.0"), 4),
     "complete after an arrival at its instant"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "2.0 expire attack 0 128 30.0"), 2),
     "m or h changes without a params line"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "2.0 expire attack 0 64 75.0"), 2),
     "m or h changes without a params line"),
    # a params line that changes only m evicts nothing
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "1.5 admit regular 2 128 75.0",
                    "1.5 params - 2 256 75.0", "1.5 expire attack 1 256 75.0",
                    "2.0 complete regular 0 256 75.0"), 4),
     "expire after an arrival at its instant"),
    # malformed lines
    (lambda _: (tsv("0.5 admitt attack 1 128 75.0"), 1), "unknown kind 'admitt'"),
    (lambda _: (tsv("0.5 admit attacker 1 128 75.0"), 1), "unknown class 'attacker'"),
    (lambda _: (tsv("0.5 admit attack"), 1), "columns: 3, not 6"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "", "2.0 expire attack 0 128 75.0"), 2),
     "columns: 1, not 6"),
    (lambda _: (tsv("abc admit attack 1 128 75.0"), 1), "time 'abc' is not a number"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "0.5 params - 1 64"), 2), "columns: 5, not 6"),
    # nan would hide the time going back from 2.0 to 1.0
    (lambda _: (tsv("2.0 admit attack 1 1 75.0", "nan block regular 1 1 75.0",
                    "1.0 expire attack 0 1 75.0"), 2), "time 'nan' is not a number"),
    (lambda _: (tsv("0.5 admit attack 1.0 128 75.0"), 1), "occupancy '1.0' is not an integer"),
    (lambda _: (tsv("0.5 admit attack 1 128.0 75.0"), 1), "m '128.0' is not an integer"),
    (lambda _: (tsv("0.5 admit attack 1 128 abc"), 1), "h 'abc' is not a number"),
    # m and h as no config holds them, a params line's included
    (lambda _: (tsv("0.5 block attack 0 0 75.0"), 1),
     "m '0', h '75.0': m must be at least 1"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "1.0 params - 1 -7 75.0",
                    "2.0 expire attack 0 -7 75.0"), 2),
     "m '-7', h '75.0': m must be at least 1"),
    (lambda _: (tsv(f"0.5 admit attack 1 {10**400} 75.0", f"2.0 expire attack 0 {10**400} 75.0"),
                1), f"m '{10**400}', h '75.0': m must be within the float range"),
    (lambda _: (tsv("0.5 admit attack 1 128 -3", "2.0 expire attack 0 128 -3"), 1),
     "m '128', h '-3': h must be strictly positive"),
    (lambda _: (tsv("0.5 admit attack 1 128 inf", "2.0 expire attack 0 128 inf"), 1),
     "m '128', h 'inf': h must be a finite number"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "1.0 params - 1 128 0.0",
                    "2.0 expire attack 0 128 0.0"), 2),
     "m '128', h '0.0': h must be strictly positive"),
    # a departure first, made up by a later admission, would end at 0
    (lambda _: (tsv("0.5 expire attack -1 128 75.0", "1.0 admit attack 0 128 75.0"), 1),
     "a departure with no resident"),
    # the first line's instant is the replay's start, -inf
    (lambda _: (tsv("-inf expire attack -1 128 75.0"), 1), "a departure with no resident"),
    # numbers that int and float read but the writer never writes
    (lambda _: (tsv("0.5 admit attack +1 128 75.0", "2.0 expire attack 0 128 75.0"), 1),
     r"occupancy '\+1' is not written as '1'"),  # the rule is a pattern
    (lambda _: ("0.5\tadmit\tattack\t 1\t128\t75.0\n" + tsv("2.0 expire attack 0 128 75.0"), 1),
     "occupancy ' 1' is not written as '1'"),
    (lambda _: (tsv("0.5 admit attack 1 1_28 75.0", "2.0 expire attack 0 1_28 75.0"), 1),
     "m '1_28' is not written as '128'"),
    (lambda _: (tsv("0.5 admit attack 1 0128 75.0", "2.0 expire attack 0 0128 75.0"), 1),
     "m '0128' is not written as '128'"),
    (lambda _: (tsv("0.5 admit attack 1 128 7_5.0", "2.0 expire attack 0 128 7_5.0"), 1),
     "h '7_5.0' is not written as '75.0'"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "1_0.5 expire attack 0 128 75.0"), 2),
     "time '1_0.5' is not written as '10.5'"),
    (lambda _: (tsv("0.5 admit attack 1 128 75.0", "Infinity expire attack 0 128 75.0"), 2),
     "time 'Infinity' is not written as 'inf'"),
    # the writer's times start at 0.0
    (lambda _: (tsv("-5.0 admit attack 1 128 75.0", "-4.0 expire attack 0 128 75.0"), 1),
     "time '-5.0' is negative"),
    (lambda _: (tsv("-inf admit attack 1 128 75.0", "-inf expire attack 0 128 75.0"), 1),
     "time '-inf' is negative"),
], ids=["block-to-admit", "admit-to-block", "admit-deleted", "time-decreases", "cut",
        "inverted-tie", "second-zero-lifetime", "h-without-params", "m-without-params",
        "m-change-evicts", "unknown-kind", "unknown-class", "three-columns", "blank-line",
        "time-not-a-number", "params-without-h", "time-nan", "occupancy-not-an-integer",
        "m-not-an-integer", "h-not-a-number", "m-0", "params-m-minus-7", "m-past-float",
        "h-minus-3", "h-inf", "params-h-0", "departure-first", "departure-first-at-minus-inf",
        "occupancy-plus", "occupancy-space", "m-underscore", "m-leading-zero", "h-underscore",
        "time-underscore", "time-infinity", "time-negative", "time-minus-inf"])
def test_replay_rejects_a_corrupted_trace_naming_its_line_and_rule(corrupt, rule):
    # a static k = 2 run fills its 128 slots, so it both admits and blocks
    buf = io.StringIO()
    run_simulation(cfg(total_requests=2000, traffic=TrafficModel(lambda1=10, k=2, mu=100)),
                   event_trace=buf)
    assert replay_trace(buf.getvalue())  # replays as written
    text, number = corrupt(buf.getvalue().splitlines(keepends=True))
    with pytest.raises(ValueError, match=f"^event trace line {number}: {rule}$"):
        replay_trace(text)


def test_a_trace_with_inf_times_replays():
    # a timeout past the float range is inf, so the drain writes an inf time
    config = cfg(master_seed=1, hold_mode="exponential", total_requests=1000, window_size=100,
                 initial_params=DefenseParams(1.7976931348623157e308, 128))
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    assert sum(line.startswith("inf\t") for line in buf.getvalue().splitlines()) == 50
    assert replay_trace(buf.getvalue()) == report.totals


def test_an_eviction_and_a_zero_lifetime_follow_an_arrival_at_its_instant():
    # the h change's eviction of a regular resident, then the admission's zero lifetime:
    # read as the admission's departure, the eviction would leave the completion none
    text = tsv("0.5 admit regular 1 128 75.0", "1.5 admit regular 2 128 75.0",
               "1.5 params - 2 256 30.0", "1.5 expire regular 1 256 30.0",
               "1.5 complete regular 0 256 30.0")
    totals = replay_trace(text)
    assert (totals.arrivals, totals.completed, totals.expired) == (
        {REG: 2, ATT: 0}, {REG: 1, ATT: 0}, {REG: 1, ATT: 0})


@pytest.mark.parametrize("config", [
    # every entry leaves at its own admission instant
    cfg(total_requests=2000, initial_params=DefenseParams(1e-300, 8)),
    # every regular entry completes at its admission instant, after the params line
    # and the evictions when it is the last arrival of its window
    cfg(master_seed=2024, total_requests=4000, controller_kind="la",
        traffic=TrafficModel(lambda1=10, k=1, mu=1e30)),
], ids=["static-h-1e-300", "la-mu-1e30"])
def test_zero_lifetimes_replay_where_the_ordering_scan_fails(config):
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    assert replay_trace(buf.getvalue()) == report.totals
    assert not trace_ordering_ok(buf.getvalue())


# sha256 of the window CSV followed by the event trace, keyed by case id:
# kind-hold_mode-k, then the case's change to the shared config, if any.  A
# change that moves the sample path on purpose records new digests and says so.
# The two static k = 0 cases agree: both modes take a service from the same
# draw, and no entry reaches its exponential timeout in these 4000 arrivals.
SAMPLE_PATH_SHA256 = {
    "static-deterministic-0.0":
        "7e03a885ee38afd98bf19b6e7423155730fcef200dfe44a4f04a0f17cd0894d1",
    "static-deterministic-2.0":
        "115e2bbce0ae2b42d9c27820b5c6fd5d2b92588d596ae7af8bb8a6b740da74d4",
    "static-exponential-0.0":
        "7e03a885ee38afd98bf19b6e7423155730fcef200dfe44a4f04a0f17cd0894d1",
    "static-exponential-2.0":
        "bdd12c6695e6709f726a4eb2c82771c2556868bf83e1a12318c646668c61d495",
    "la-deterministic-0.0":
        "6f04f4079b0db0801ea80a7365b756e99f6f56ba4c09c0e64fdadbf65235eb11",
    "la-deterministic-2.0":
        "ad1913819c460d2b69c5c144b4ccdba8c9a619ec0ea6dd0205e669d5891a0556",
    "la-exponential-0.0":
        "8748ed9c03fb85813711ed3d7c274a9780e2ef46f497adabcad5888602f9e513",
    "la-exponential-2.0":
        "59bfb419a31e95b2806e0d1dd966a491f0b69c627b2ba4cd4c4877308c934ebb",
    "la-deterministic-2.0-overshoot":
        "2ff93492f81f7bd88c175fa18260084c2eb8a7ba550ba408ad4a698cec046224",
    "la-exponential-2.0-window1":
        "bb349c1d8aaff8e2d38dddf09ffcdac08601f0d9a2d047a4b8f6b65af1b33501",
    "static-exponential-2.0-window700":
        "8c65fd915c015bd1aeb37e8ab84c2d34d21030b18b354cd082383f6eac1ba208",
    "la-exponential-2.0-window700":
        "5da781f24ef723e2fefdbe732200dd100a882c4e54d611a8a1b5d24a2eb72f75",
    "la-exponential-2.0-window5000":
        "660641ea28d934446ab3b19bb3095162a9751f7a46bad15f85b6a3eeffd7277e",
}
CASE_CHANGES = {
    # m shrinks to 256 with 398 residents: they stay, over the new cap
    "la-deterministic-2.0-overshoot": dict(master_seed=9),
    # every arrival is a window, so the controller acts after each one
    "la-exponential-2.0-window1": dict(window_size=1),
    # 700 does not divide the 4096 arrivals sampled at a time: 9 windows make
    # a block of 5, then a short one of 4; the LA changes m inside the first
    # and h inside the second
    "static-exponential-2.0-window700": dict(total_requests=6300, window_size=700),
    "la-exponential-2.0-window700": dict(total_requests=6300, window_size=700),
    # a window larger than a block is its own block; h changes before the third window
    "la-exponential-2.0-window5000": dict(total_requests=15000, window_size=5000),
}


def case_config(case):
    kind, hold_mode, k = case.split("-")[:3]
    return cfg(**{"master_seed": 2024, "total_requests": 4000, "controller_kind": kind,
                  "hold_mode": hold_mode,
                  "traffic": TrafficModel(lambda1=10.0, k=float(k), mu=100.0),
                  **CASE_CHANGES.get(case, {})})


@pytest.mark.parametrize("case", sorted(SAMPLE_PATH_SHA256))
def test_sample_path_is_pinned(case):
    config = case_config(case)
    buf = io.StringIO()
    report = run_simulation(config, event_trace=buf)
    text = window_csv(config, report) + buf.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLE_PATH_SHA256[case]
    if case.endswith("overshoot"):
        # a params line over its m that no eviction (an expire line at its instant) follows
        rows = [line.split("\t") for line in buf.getvalue().splitlines()]
        assert any(row[1] == "params" and int(row[3]) > int(row[4])
                   and (after[0], after[1]) != (row[0], "expire")
                   for row, after in zip(rows, rows[1:]))


# sha256 of the LA trace CSV of each LA case of SAMPLE_PATH_SHA256.  The
# deterministic and exponential cases of one k share a trace: the automata
# see only the window scores, and those rank alike in both modes.
LA_TRACE_SHA256 = {
    "la-deterministic-0.0":
        "af994b31065fa7889bb7f345488fb850d0042d650b5a56bb9ab546f6c1aded5c",
    "la-deterministic-2.0":
        "6ad1ad9872a6e81780b7b9f7961263c7409f9833a5f20273be88cd38ef31bc54",
    "la-deterministic-2.0-overshoot":
        "4e1046d078b99d6d70256e9110b294faf02a9cb41141949f5e85d5da755c176d",
    "la-exponential-0.0":
        "af994b31065fa7889bb7f345488fb850d0042d650b5a56bb9ab546f6c1aded5c",
    "la-exponential-2.0":
        "6ad1ad9872a6e81780b7b9f7961263c7409f9833a5f20273be88cd38ef31bc54",
    "la-exponential-2.0-window1":
        "c1c5e993be71eaff07b5521acd2c45bf3ae1d225c1b3427341227509b6148489",
    "la-exponential-2.0-window5000":
        "f3f0e946c17dca77ea9a3cefdeaac1727316e946a43644683b0425f116ede2af",
    "la-exponential-2.0-window700":
        "a734e53d465769444678b50d4d8bdf6122f3300be38ea70eff2c6d4e3fd837ab",
}


@pytest.mark.parametrize("case", sorted(LA_TRACE_SHA256))
def test_la_trace_is_pinned(case):
    controller = LaController()
    run_simulation(case_config(case), controller=controller)
    text = la_trace_csv(controller)
    assert hashlib.sha256(text.encode()).hexdigest() == LA_TRACE_SHA256[case]


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
    last = report.param_trajectory[-1]
    assert {(int(row[4]), float(row[5])) for row in drain} == {(last.m, last.h)}


def f_string_trace_lines(params, *settle):
    """The per-line f-string formatter the tail cache replaced: the reference."""
    events = (x.tolist() for x in trace_events(*settle))
    return "".join([f"{t!r}\t{EVENT_LABELS[code]}\t{n}\t{params.m}\t{params.h}\n"
                    for t, code, n in zip(*events)])


# no block and almost no departure (mu = 1e-6): the occupancy climbs to about
# 30 000, so past the tail cache's bound every tail is a miss and the cache is cleared
CLIMBING = cfg(total_requests=30_000, window_size=1000, initial_params=DefenseParams(1e9, 10**9),
               traffic=TrafficModel(lambda1=10.0, k=1.0, mu=1e-6))


@pytest.mark.parametrize("config", [
    CLIMBING,
    case_config("la-deterministic-2.0-overshoot"),  # an m shrink below occupancy, params lines
    # every entry leaves at its own admission instant, so the drain writes one departure
    cfg(total_requests=2000, initial_params=DefenseParams(1e-300, 8)),
], ids=["climbing", "overshoot", "zero-lifetime"])
def test_event_trace_matches_the_per_line_f_string(config, monkeypatch):
    buf, reference = io.StringIO(), io.StringIO()
    run_simulation(config, event_trace=buf)
    monkeypatch.setattr(engine, "_trace_lines", f_string_trace_lines)
    run_simulation(config, event_trace=reference)
    assert buf.getvalue() == reference.getvalue()


def test_the_tail_cache_stays_within_its_bound():
    buf = io.StringIO()
    run_simulation(CLIMBING, event_trace=buf)
    tails = {line.split("\t", 1)[1].rsplit("\t", 2)[0] for line in buf.getvalue().splitlines()}
    assert len(tails) > engine._TAIL_CACHE_BOUND  # the run outgrows the cache
    assert 0 < len(engine._TAILS) <= engine._TAIL_CACHE_BOUND


def test_ordering_scan_catches_inverted_tie_break():
    # arrival before a departure at the same instant must be flagged
    bad = ("1.5\tadmit\tregular\t3\t128\t75.0\n"
           "1.5\tcomplete\tregular\t2\t128\t75.0\n")
    assert not trace_ordering_ok(bad)


def test_invalid_config_is_rejected():
    with pytest.raises(ValueError, match="invalid config"):
        run_simulation(cfg(window_size=0))


# -- controllers passed in ---------------------------------------------------


SCRIPTED = cfg(master_seed=0, total_requests=2000, window_size=500)  # 4 windows


def traced(config, controller=None):
    """A run's report, window CSV and event trace."""
    buf = io.StringIO()
    report = run_simulation(config, controller=controller, event_trace=buf)
    return report, window_csv(config, report), buf.getvalue()


@pytest.mark.parametrize("first", [True, False], ids=["initial", "later"])
@pytest.mark.parametrize("answer, message", [
    (DefenseParams(75.0, 0), "m must be at least 1"),
    (DefenseParams(-5.0, 8), "h must be strictly positive"),
    (DefenseParams(math.nan, 8), "h must be a finite number"),
    (DefenseParams(75.0, 2.5), "m must be an integer"),
    ((75.0, 128), r"\(h, m\) must be a DefenseParams"),
], ids=["m=0", "h=-5", "h=nan", "m=2.5", "tuple"])
def test_a_controllers_bad_answer_is_rejected_naming_its_field(answer, message, first):
    # the bad answer comes first, or from the second window on
    answers = [answer] * 5 if first else [SCRIPTED.initial_params] + [answer] * 4
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_simulation(SCRIPTED, controller=StaticController(answers))


def test_an_int_h_answer_runs_and_is_written_as_a_float():
    report, csv_text, trace = traced(SCRIPTED, StaticController([DefenseParams(75, 128)]))
    assert all(type(p.h) is float and p.h == 75.0 for p in report.param_trajectory)
    assert {row["h"] for row in csv.DictReader(io.StringIO(csv_text))} == {"75.0"}
    assert {line.split("\t")[5] for line in trace.splitlines()} == {"75.0"}
    assert replay_trace(trace) == report.totals


def test_a_controller_answering_the_initial_pair_writes_the_static_bytes():
    static = traced(SCRIPTED)
    constant = traced(SCRIPTED, StaticController([SCRIPTED.initial_params] * 5))
    assert constant[1:] == static[1:]


def test_a_scripted_schedule_is_the_param_trajectory():
    # an h change that evicts (k = 2 keeps attack entries resident), an m shrink,
    # an m growth; the answer to the last window has none left to act on
    schedule = [DefenseParams(75.0, 128), DefenseParams(1.0, 128), DefenseParams(1.0, 64),
                DefenseParams(20.0, 256), DefenseParams(0.5, 8)]
    config = replace(SCRIPTED, traffic=TrafficModel(lambda1=10.0, k=2.0, mu=100.0))
    report, _, trace = traced(config, StaticController(schedule))
    assert report.param_trajectory == schedule[:4]
    assert replay_trace(trace) == report.totals


def test_a_schedule_shorter_than_the_run_holds_its_last_entry():
    s0, s1 = DefenseParams(75.0, 128), DefenseParams(1.0, 64)
    report, _, trace = traced(SCRIPTED, StaticController((s0, s1)))
    assert report.param_trajectory == [s0, s1, s1, s1]
    assert replay_trace(trace) == report.totals


def test_one_schedule_controller_serves_repeated_runs():
    # initial_params restarts the schedule: a second run of 3 entries over 4
    # windows would otherwise start at its last entry from window 1 on
    controller = StaticController((DefenseParams(75.0, 128), DefenseParams(1.0, 64),
                                   DefenseParams(20.0, 256)))
    first = traced(SCRIPTED, controller)
    assert first == traced(SCRIPTED, controller)
    assert len(set(first[0].param_trajectory)) == 3


@pytest.mark.parametrize("params", [DefenseParams(1.0, 8), DefenseParams(0.5, 1024)],
                         ids=["1-8", "0.5-1024"])
def test_an_la_configs_initial_params_has_no_effect(params):
    # the LA's first pair is sampled from the uniform priors; the field is the
    # static controller's pair and the oracle's
    config = cfg(master_seed=1, controller_kind="la")
    assert config.initial_params == DefenseParams(75.0, 128)
    assert traced(replace(config, initial_params=params)) == traced(config)
