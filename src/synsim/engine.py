"""Deterministic simulator of the half-open connection backlog.

Two merged Poisson arrival streams feed a capacity-m buffer.  A regular
entry leaves by handshake completion (Exp(mu)) or by hitting the hold
time h, whichever comes first; an attack entry only ever times out.  The
controller is consulted at every window boundary and may change (h, m)
mid-run: h is retroactive (residents past the new timeout are evicted on
the spot), an m shrink evicts nothing and simply blocks admissions until
the buffer drains below the new cap.

One master seed derives four independent RNG streams (regular arrivals,
attack arrivals, entry lifetimes, action selection), so swapping the
controller never perturbs the traffic sample path.

Admission: the slot heap.  Whether an arrival at t is admitted depends
only on how many residents are still there at t, so the state keeps a
min-heap of exactly m slot free-times (0.0 for a slot never used).  An
arrival at t is admitted iff heap[0] <= t, and its departure time then
replaces heap[0].  This is the rule "take out every departure due by t,
then admit iff occupancy < m", tie included: the heap holds the departure
of every resident still there at t plus values <= t, so its minimum is
above t exactly when m residents are still there.  After an m shrink below
the occupancy, the heap holds the m latest departures, so admission waits
for occupancy - m + 1 departures.  The run loop makes one call per arrival,
admit_or_block, which draws the entry's lifetimes and pushes its departure
time; nothing else runs per arrival.

Departures: the settle.  Once per window, advance_to records the window's
admitted entries from the same lifetime draws, takes out the departures due
by the window's last arrival, in (time, admission number) order, and merges
them into the window's arrivals: each departure goes just before the first
arrival that follows its admission and is not earlier than it, so a
departure comes first on a tie.  (For a zero lifetime this assumes no two
arrivals share an instant, which has probability 0.)  Per-class occupancy is a cumsum
of +-1 steps.  Each normalized occupancy integral adds dt * n / m per event,
in event order, through np.cumsum seeded with the running value; np.cumsum
adds left to right (np.add.accumulate, not a pairwise sum), so the integral
is bit for bit the one an event-by-event `+=` builds, and an event at the
time of the one before it adds an exact +0.0.  (h, m) changes only between
windows, so m is constant within a settle.  The drain after the last
arrival is the same settle with no arrivals.

Bookkeeping keeps one representation per concept.  Every per-class count
(arrivals, admissions, blocks, completions, expiries, occupancy, the
normalized occupancy integral) is a [regular, attack] pair indexed by the
RequestClass int, and each resident is one column of a records array.  A
window's metrics are the differences of the running counters, which the
state lists in finalize_window's argument order.

Each arrival stream is sampled 8192 gaps at a time and read as absolute
times, one np.cumsum per block (the same left-to-right sums as adding one
gap at a time).  A run is a whole number of windows, so every arrival
lands in one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapreplace

import numpy as np

from .controller import make_controller
from .domain import DefenseParams, RequestClass, SimConfig, validate_config
from .metrics import WindowMetrics, cumulative_metrics, finalize_window

_INF = math.inf
REG = RequestClass.REGULAR
CLASS_LABEL = tuple(cls.name.lower() for cls in RequestClass)  # event-trace text

# the kind and class columns of an event-trace line, indexed by 2 * kind + class
EVENT_LABELS = tuple(f"{kind}\t{label}" for kind in ("admit", "block", "complete", "expire")
                     for label in CLASS_LABEL)

# columns of a resident record; COMPLETE is 1.0 when the entry will complete
ADMIT, CLS, SERVICE, HOLD_UNIT, DEP, COMPLETE = range(6)


class _ExpStream:
    """Blockwise exponential sampler; rate 0 never fires.

    draw() returns the next block of gaps.  times() yields them as absolute
    times: the running left-to-right sum of the gaps, one np.cumsum per
    block, bit for bit the sum `t = t + gap` builds.
    """

    __slots__ = ("rng", "rate", "block")

    def __init__(self, rng: np.random.Generator, rate: float, block: int = 8192):
        self.rng = rng
        self.rate = rate
        self.block = block

    def draw(self) -> np.ndarray:
        if self.rate > 0:
            return self.rng.exponential(1.0 / self.rate, self.block)
        return np.full(self.block, _INF)

    def times(self) -> Iterator[np.ndarray]:
        t = 0.0
        while True:
            gaps = self.draw()
            gaps[0] += t  # the block's first sum starts from the last time
            block = np.cumsum(gaps)
            yield block
            t = block[-1]


class _Lifetimes:
    """Unit-rate lifetime draws, read twice: one by one as Python floats on
    admission (next), then as an array when the window settles (settled)."""

    def __init__(self, rng: np.random.Generator):
        stream = _ExpStream(rng, 1.0)
        self.blocks = blocks = []  # drawn blocks not wholly settled
        self.start = 0  # the first unsettled value in blocks[0]

        def draw() -> list[float]:
            # a closure, not a method: a reference back to self would make a
            # cycle that keeps a block alive until the cyclic collector runs
            block = stream.draw()
            blocks.append(block)
            return block.tolist()

        self.next = itertools.chain.from_iterable(iter(draw, None)).__next__

    def settled(self, n: int) -> np.ndarray:
        """The next n values, which next() has already read."""
        if not n:
            return np.empty(0)
        blocks = self.blocks
        drawn = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        values = drawn[self.start:self.start + n]
        # next() reads past a block only when it needs a value from the next
        self.start += n - (len(drawn) - len(blocks[-1]))
        del blocks[:-1]
        return values


def _per_class(classes: np.ndarray) -> list[int]:
    """How many of the classes (0 regular, 1 attack) are of each class."""
    n_attack = int(np.count_nonzero(classes))
    return [len(classes) - n_attack, n_attack]


class _Arrivals:
    """The two streams merged in time order, read one window at a time.

    A regular arrival goes first on a tie.  Each stream keeps the times not
    read yet; a window of n takes the n earliest of both streams' next n.
    """

    def __init__(self, regular: _ExpStream, attack: _ExpStream):
        self.blocks = (regular.times(), attack.times())
        self.unread = [np.empty(0), np.empty(0)]

    def _head(self, cls: int, n: int) -> np.ndarray:
        unread = self.unread[cls]
        while len(unread) < n:
            unread = np.concatenate((unread, next(self.blocks[cls])))
        self.unread[cls] = unread
        return unread[:n]

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Times and classes (0 regular, 1 attack) of the next n arrivals."""
        both = np.concatenate((self._head(0, n), self._head(1, n)))
        order = np.argsort(both, kind="stable")[:n]  # stable: regular first on a tie
        classes = (order >= n).view(np.int8)
        n_regular, n_attack = _per_class(classes)
        self.unread[0] = self.unread[0][n_regular:]
        self.unread[1] = self.unread[1][n_attack:]
        return both[order], classes


def _schedule(records: np.ndarray, h: float) -> None:
    """Set each record's departure time and cause under hold time h.

    These are admit_or_block's float expressions, so a record scheduled
    here leaves exactly when the slot heap says.
    """
    admit = records[ADMIT]
    completion = admit + records[SERVICE]
    timeout = admit + records[HOLD_UNIT] * h
    records[COMPLETE] = completion < timeout
    records[DEP] = np.minimum(completion, timeout)


@dataclass
class EvictionSummary:
    regular: int = 0
    attack: int = 0


@dataclass
class RunTotals:
    """Whole-run per-class conservation counters, keyed by RequestClass."""

    arrivals: dict
    admitted: dict
    blocked: dict
    completed: dict
    expired: dict
    residents_at_drain: dict


@dataclass
class SimReport:
    windows: list[WindowMetrics]
    param_trajectory: list[tuple[int, DefenseParams]]
    cumulative: WindowMetrics
    horizon: float
    totals: RunTotals

    @property
    def legit_expired_fraction(self) -> float:
        admitted = self.totals.admitted[REG]
        return self.totals.expired[REG] / admitted if admitted else 0.0


class BacklogState:
    """Mutable backlog: slot heap, resident records, (h, m), per-class counts."""

    def __init__(self, params: DefenseParams, hold_mode: str, mu: float,
                 lifetime_rng: np.random.Generator):
        self.params = params
        self.exponential_hold = hold_mode == "exponential"
        self.mu = mu
        self.lifetimes = _Lifetimes(lifetime_rng)
        self.clock = 0.0
        self.heap = [0.0] * params.m  # slot free-times; 0.0 is a slot never used
        self.records = np.empty((6, 0))  # a column per resident, in admission order
        # [regular, attack] pairs
        self.arrivals = [0, 0]
        self.admitted = [0, 0]
        self.blocked = [0, 0]
        self.completed = [0, 0]
        self.expired = [0, 0]
        self.occupancy = [0, 0]
        self.integral = [0.0, 0.0]  # time integral of occupancy / m

    def window_counters(self) -> tuple:
        """Running counters in finalize_window's argument order, duration last."""
        return (*self.arrivals, *self.blocked, self.completed[REG], self.expired[REG],
                *self.integral, self.clock)

    # -- admissions ------------------------------------------------------

    def admit_or_block(self, cls: int, now: float) -> bool | None:
        """Admit iff a slot is free at now: True if admitted, None if blocked.

        An admission draws a regular entry's service time, then, in
        exponential mode, the hold unit.  The arrival is counted and its entry
        recorded when its window settles.
        """
        heap = self.heap
        if heap[0] > now:
            return None
        lifetime = self.lifetimes.next
        service = _INF if cls else lifetime() / self.mu
        hold_unit = lifetime() if self.exponential_hold else 1.0  # 1.0 * h == h
        completion = now + service
        timeout = now + hold_unit * self.params.h
        heapreplace(heap, completion if completion < timeout else timeout)
        return True

    def _record(self, times: np.ndarray, classes: np.ndarray) -> None:
        """Add the entries admitted at times to the residents.

        Their lifetimes are the draws admit_or_block read, in its order.
        """
        regular = classes == 0
        draws = regular + np.intp(self.exponential_hold)  # lifetime draws per admission
        first = np.cumsum(draws) - draws
        lifetimes = self.lifetimes.settled(int(draws.sum()))
        new = np.empty((6, len(times)))
        new[ADMIT] = times
        new[CLS] = classes
        new[SERVICE] = _INF
        new[SERVICE, regular] = lifetimes[first[regular]] / self.mu
        new[HOLD_UNIT] = lifetimes[first + regular] if self.exponential_hold else 1.0
        _schedule(new, self.params.h)
        self.records = np.concatenate((self.records, new), axis=1)
        admitted = _per_class(classes)
        for cls in (0, 1):
            self.admitted[cls] += admitted[cls]
            self.occupancy[cls] += admitted[cls]

    # -- departures ------------------------------------------------------

    def pop_due(self, until: float) -> np.ndarray:
        """Take out the residents admitted before until that leave by until.

        They come in (departure, admission number) order: records are kept in
        admission order, and the sort is stable.
        """
        records = self.records
        due = (records[DEP] <= until) & (records[ADMIT] < until)
        self.records = records[:, ~due]
        records = records[:, due]
        return records[:, np.argsort(records[DEP], kind="stable")]

    def depart(self, records: np.ndarray) -> None:
        """Free the records' slots and count their completions and expiries."""
        counts = np.bincount((2 * records[CLS] + records[COMPLETE]).astype(np.intp),
                             minlength=4).tolist()
        for cls in (0, 1):
            expired, completed = counts[2 * cls:2 * cls + 2]
            self.occupancy[cls] -= expired + completed
            self.completed[cls] += completed
            self.expired[cls] += expired

    # -- time ------------------------------------------------------------

    def advance_to(self, until: float, times: np.ndarray = np.empty(0),
                   classes: np.ndarray = np.empty(0, np.int8),
                   outcomes: list = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Settle the window whose last arrival is at until; until=inf drains.

        times, classes and outcomes (admit_or_block's answers) are the
        window's arrivals.  Counts them, records the admitted entries, takes
        out the departures due and integrates occupancy / m up to the last
        event.  Returns the events in order: their times, their codes
        (2 * kind + class; kind 0-3 is admit, block, complete, expire) and
        the occupancy after each.
        """
        admitted = np.fromiter(outcomes, bool, len(times))  # None, a block, is False
        arrivals, blocked = _per_class(classes), _per_class(classes[~admitted])
        for cls in (0, 1):
            self.arrivals[cls] += arrivals[cls]
            self.blocked[cls] += blocked[cls]
        start = np.array(self.occupancy, dtype=float)
        self._record(times[admitted], classes[admitted])
        due = self.pop_due(until)
        self.depart(due)

        # merge, departures first on a tie; a zero lifetime (departure ==
        # admission) is keyed just past its admission, so it follows it
        dep = due[DEP]
        key = dep.copy()
        zero = dep == due[ADMIT]
        key[zero] = np.nextafter(dep[zero], _INF)
        order = np.argsort(np.concatenate((key, times)), kind="stable")
        t = np.concatenate((dep, times))[order]
        cls = np.concatenate((due[CLS], classes))[order].astype(np.intp)
        kind = np.concatenate((3 - due[COMPLETE], ~admitted))[order].astype(np.intp)
        change = np.concatenate((np.full(len(dep), -1.0), admitted))[order]
        step = np.zeros((2, len(t)))  # occupancy change per class
        step[cls, np.arange(len(t))] = change

        after = start[:, None] + np.cumsum(step, axis=1)  # exact: small integers
        terms = np.diff(t, prepend=self.clock) * (after - step) / self.params.m
        # seeded with the running values, the sums go on left to right
        seeded = np.concatenate((np.array(self.integral)[:, None], terms), axis=1)
        self.integral = np.cumsum(seeded, axis=1)[:, -1].tolist()
        if len(t):
            self.clock = float(t[-1])
        return t, 2 * kind + cls, after.sum(axis=0).astype(np.intp)

    # -- parameter changes -----------------------------------------------

    def apply_defense_params(self, new: DefenseParams, now: float) -> EvictionSummary:
        """Install new (h, m).  h is retroactive; m-shrink never evicts.

        An h change reschedules every resident and evicts the ones now due
        by now, as expiries.  Any change rebuilds the slot heap in place (the
        run loop holds it): the m latest resident departures, after 0.0
        free slots when fewer than m are resident.
        """
        old = self.params
        if new == old:
            return EvictionSummary()
        self.params = new
        counts = [0, 0]
        if new.h != old.h:
            records = self.records
            _schedule(records, new.h)
            gone = records[DEP] <= now
            evicted = records[:, gone]
            evicted[COMPLETE] = 0.0
            self.depart(evicted)
            counts = _per_class(evicted[CLS])
            self.records = records[:, ~gone]
        latest = np.sort(self.records[DEP])[-new.m:].tolist()
        self.heap[:] = [0.0] * (new.m - len(latest)) + latest  # sorted, so a heap
        return EvictionSummary(*counts)


def _trace_lines(times: np.ndarray, codes: np.ndarray, occupancy: np.ndarray,
                 suffix: str) -> list[str]:
    return [f"{t!r}\t{EVENT_LABELS[code]}\t{n}{suffix}"
            for t, code, n in zip(times.tolist(), codes.tolist(), occupancy.tolist())]


class ConservationError(AssertionError):
    pass


def _audit(totals: RunTotals) -> None:
    for cls in RequestClass:
        label = CLASS_LABEL[cls]
        if totals.admitted[cls] != (totals.completed[cls] + totals.expired[cls]
                                    + totals.residents_at_drain[cls]):
            raise ConservationError(
                f"{label}: admitted != completed + expired + residents")
        if totals.admitted[cls] + totals.blocked[cls] != totals.arrivals[cls]:
            raise ConservationError(f"{label}: admitted + blocked != arrivals")


def run_simulation(config: SimConfig, controller=None, seed: int | None = None,
                   event_trace=None) -> SimReport:
    """Run the full event loop and return a complete report.

    Same (config, seed) always yields a bit-identical report.  event_trace,
    if given, is a writable text file receiving one tab-separated line per
    event: time, kind, class, occupancy-after, m, h.
    """
    violations = validate_config(config)
    if violations:
        raise ValueError("invalid config: " + "; ".join(violations))
    if seed is None:
        seed = config.master_seed
    if controller is None:
        controller = make_controller(config)

    ss = np.random.SeedSequence(seed)
    rng_reg, rng_att, rng_life, rng_la = (np.random.default_rng(c)
                                          for c in ss.spawn(4))
    traffic = config.traffic
    reg_stream = _ExpStream(rng_reg, traffic.lambda1)
    att_stream = _ExpStream(rng_att, traffic.lambda2)

    params = controller.initial_params(rng_la)
    state = BacklogState(params, config.hold_mode, traffic.mu, rng_life)

    trace = event_trace
    lines: list[str] = []  # trace lines of the current window, one write each
    suffix = f"\t{params.m}\t{params.h!r}\n"  # the m and h columns

    wsize = config.window_size
    n_windows = config.total_requests // wsize
    windows: list[WindowMetrics] = []
    trajectory: list[tuple[int, DefenseParams]] = [(0, params)]
    win_start = state.window_counters()

    arrivals = _Arrivals(reg_stream, att_stream)
    admit_or_block, advance_to = state.admit_or_block, state.advance_to

    for window in range(1, n_windows + 1):
        times, classes = arrivals.take(wsize)
        outcomes = list(map(admit_or_block, classes.tolist(), times.tolist()))
        t_last = float(times[-1])
        events = advance_to(t_last, times, classes, outcomes)
        if trace:
            lines += _trace_lines(*events, suffix)

        win_end = state.window_counters()
        wm = finalize_window(*(e - s for e, s in zip(win_end, win_start)),
                             epsilon_floor=config.epsilon_floor)
        windows.append(wm)
        win_start = win_end
        new_params = controller.on_window_end(wm, rng_la)
        if window < n_windows:  # no window is left to act on the last answer
            state.apply_defense_params(new_params, t_last)
            if new_params != params and trace:
                suffix = f"\t{new_params.m}\t{new_params.h!r}\n"
                lines.append(f"{t_last!r}\tparams\t-\t{sum(state.occupancy)}{suffix}")
            params = new_params
            trajectory.append((window, params))
        if trace:
            trace.write("".join(lines))
            lines.clear()

    # drain all residents after the last arrival
    events = advance_to(_INF)
    if trace:
        trace.write("".join(_trace_lines(*events, suffix)))

    totals = RunTotals(*(dict(zip(RequestClass, pair)) for pair in (
        state.arrivals, state.admitted, state.blocked, state.completed, state.expired,
        state.occupancy)))
    _audit(totals)

    return SimReport(
        windows=windows,
        param_trajectory=trajectory,
        cumulative=cumulative_metrics(windows, config.epsilon_floor),
        horizon=t_last,
        totals=totals,
    )
