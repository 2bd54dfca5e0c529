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
controller never perturbs the traffic sample path.  Lifetimes are drawn by
arrival, not by admission: every arrival of a window gets a service unit and
a hold unit from one (2, n) draw, whatever its class or outcome.  Two runs of
one seed with different controllers therefore give every arrival the same
lifetimes, so a static and an adaptive cell differ only by (h, m).

Admission: the slot heap.  Whether an arrival at t is admitted depends
only on how many residents are still there at t, so the state keeps a
min-heap of exactly m slot free-times (0.0 for a slot never used).  An
arrival at t is admitted iff heap[0] <= t, and its departure time then
replaces heap[0].  This is the rule "take out every departure due by t,
then admit iff occupancy < m", tie included: the heap holds the departure
of every resident still there at t plus values <= t, so its minimum is
above t exactly when m residents are still there.  After an m shrink below
the occupancy, the heap holds the m latest departures, so admission waits
for occupancy - m + 1 departures.  h is constant within a window, so each
arrival's departure time, were it admitted, is computed for the whole window
in numpy (offered) before admission runs.  The run loop then makes one call
per arrival, admit_or_block: one compare and, on admission, one heapreplace;
nothing else runs per arrival.

Departures: the settle.  Once per window, advance_to keeps the admitted
columns of the offered records as new residents and takes out the
departures due by the window's last arrival.  A class's occupancy integral
over the window [clock, until] is the sum, over its records resident in it,
of min(dep, until) - max(admit, clock), so no event order is needed: the
settle takes one np.bincount of those spans / m over the records, in
admission order, and keeps it as the window's integral.  (h, m) changes
only between windows, so m is constant within a settle.  The drain after
the last arrival is the same settle with until = inf.  Only the event trace
orders events, in trace_events, which runs only when a trace is written.

Bookkeeping keeps one representation per concept.  Every per-class count
(arrivals, admissions, blocks, completions, expiries) is a [regular, attack]
pair indexed by the RequestClass int, and each resident is one column of a
records array, so the occupancy is a count of the records.  The run audit
compares three tallies kept apart: admissions from admit_or_block's
outcomes, departures from depart, and the residents still in the records.

Each arrival stream is sampled 8192 gaps at a time and read as absolute
times, one np.cumsum per block (the same left-to-right sums as adding one
gap at a time).  A run is a whole number of windows, so every arrival
lands in one.
"""

from __future__ import annotations

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
_NO_RECORDS = np.empty((6, 0))


class _ExpStream:
    """Blockwise exponential sampler; rate 0 never fires.

    draw() returns the next block of gaps.  times() yields them as absolute
    times: the running left-to-right sum of the gaps, one np.cumsum per
    block, bit for bit the sum `t = t + gap` builds.  A sum past the largest
    float is inf, so a rate too small to fire again within the float range
    never fires again, as rate 0 never fires.
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
            with np.errstate(over="ignore"):
                gaps[0] += t  # the block's first sum starts from the last time
                block = np.cumsum(gaps)
            yield block
            t = block[-1]


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
    """Set each record's departure time and cause under hold time h."""
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
        self.lifetime_rng = lifetime_rng
        self.clock = 0.0
        self.heap = [0.0] * params.m  # slot free-times; 0.0 is a slot never used
        self.records = np.empty((6, 0))  # a column per resident, in admission order
        # [regular, attack] pairs
        self.arrivals = [0, 0]
        self.admitted = [0, 0]
        self.blocked = [0, 0]
        self.completed = [0, 0]
        self.expired = [0, 0]
        self.integral = [0.0, 0.0]  # the last settle's time integral of occupancy / m

    @property
    def occupancy(self) -> list[int]:
        """Residents of each class: the records still held."""
        return _per_class(self.records[CLS])

    def window_counters(self) -> tuple:
        """Running counts in finalize_window's argument order."""
        return (*self.arrivals, *self.blocked, self.completed[REG], self.expired[REG])

    # -- admissions ------------------------------------------------------

    def offered(self, times: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Records of a window's arrivals, each scheduled as if admitted now.

        Every arrival gets a service unit and a hold unit, drawn in one
        (2, n) block whatever its class, hold mode or outcome; an attack
        entry's service is inf, and in deterministic mode the hold unit is 1.
        """
        units = self.lifetime_rng.standard_exponential((2, len(times)))
        records = np.empty((6, len(times)))
        records[ADMIT] = times
        records[CLS] = classes
        records[SERVICE] = np.where(classes == 0, units[0] / self.mu, _INF)
        records[HOLD_UNIT] = units[1] if self.exponential_hold else 1.0  # 1.0 * h == h
        _schedule(records, self.params.h)
        return records

    def admit_or_block(self, dep: float, now: float) -> bool | None:
        """Admit iff a slot is free at now: True if admitted, None if blocked.

        dep is the arrival's departure time from offered; the arrival is
        counted and its entry recorded when its window settles.
        """
        heap = self.heap
        if heap[0] > now:
            return None
        heapreplace(heap, dep)
        return True

    # -- departures ------------------------------------------------------

    def pop_due(self, until: float) -> np.ndarray:
        """Take out the residents admitted before until that leave by until.

        They come in admission order, as the records are kept.
        """
        records = self.records
        due = (records[DEP] <= until) & (records[ADMIT] < until)
        self.records = records[:, ~due]
        return records[:, due]

    def depart(self, records: np.ndarray) -> None:
        """Free the records' slots and count their completions and expiries."""
        counts = np.bincount((2 * records[CLS] + records[COMPLETE]).astype(np.intp),
                             minlength=4).tolist()
        for cls in (0, 1):
            expired, completed = counts[2 * cls:2 * cls + 2]
            self.completed[cls] += completed
            self.expired[cls] += expired

    # -- time ------------------------------------------------------------

    def advance_to(self, until: float, offered: np.ndarray = _NO_RECORDS,
                   outcomes: list = ()) -> np.ndarray:
        """Settle the window whose last arrival is at until; until=inf drains.

        offered (the window's records) and outcomes (admit_or_block's
        answers) are the window's arrivals.  Counts them, keeps the admitted
        records as residents, sets integral to each class's occupancy / m
        integral over [clock, until] and takes out the departures due.
        Returns the records taken out, in admission order.
        """
        classes = offered[CLS]
        admitted = np.fromiter(outcomes, bool, len(classes))  # None, a block, is False
        arrivals, admits = _per_class(classes), _per_class(classes[admitted])
        for cls in (0, 1):
            self.arrivals[cls] += arrivals[cls]
            self.admitted[cls] += admits[cls]
            self.blocked[cls] += arrivals[cls] - admits[cls]
        records = np.concatenate((self.records, offered[:, admitted]), axis=1)
        self.records = records
        # each resident's time in [clock, until]
        span = np.minimum(records[DEP], until) - np.maximum(records[ADMIT], self.clock)
        self.integral = np.bincount(records[CLS].astype(np.intp), span / self.params.m,
                                    minlength=2).tolist()
        self.clock = until
        due = self.pop_due(until)
        self.depart(due)
        return due

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


def trace_events(departed: np.ndarray, occupancy: int, offered: np.ndarray = _NO_RECORDS,
                 outcomes: list = ()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A settle's events in trace order: their times, their codes (2 * kind +
    class; kind 0-3 is admit, block, complete, expire) and the occupancy after
    each.  departed is what advance_to returned, occupancy the total after it,
    and offered and outcomes are advance_to's arguments.

    Each departure goes just before the first arrival not earlier than it, so
    a departure comes first on a tie, and departures go in (time, admission
    number) order.  A zero lifetime (departure == admission) is keyed just
    past its admission, so it follows it; this assumes no two arrivals share
    an instant, which has probability 0.
    """
    admitted = np.fromiter(outcomes, bool, offered.shape[1])
    dep, times = departed[DEP], offered[ADMIT]
    key = dep.copy()
    zero = dep == departed[ADMIT]
    key[zero] = np.nextafter(dep[zero], _INF)
    t = np.concatenate((dep, times))
    order = np.lexsort((t, np.concatenate((key, times))))  # stable: departures first
    cls = np.concatenate((departed[CLS], offered[CLS]))[order]
    kind = np.concatenate((3 - departed[COMPLETE], ~admitted))[order]
    change = np.concatenate((np.full(len(dep), -1), admitted))[order]
    after = occupancy - change.sum() + np.cumsum(change)
    return t[order], (2 * kind + cls).astype(np.intp), after


def _trace_lines(suffix: str, *settle) -> list[str]:
    """The lines of trace_events(*settle), each ending in suffix."""
    events = (x.tolist() for x in trace_events(*settle))
    return [f"{t!r}\t{EVENT_LABELS[code]}\t{n}{suffix}" for t, code, n in zip(*events)]


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
    counts_start, t_start = state.window_counters(), 0.0

    arrivals = _Arrivals(reg_stream, att_stream)
    admit_or_block, advance_to = state.admit_or_block, state.advance_to

    for window in range(1, n_windows + 1):
        times, classes = arrivals.take(wsize)
        offered = state.offered(times, classes)
        outcomes = list(map(admit_or_block, offered[DEP].tolist(), times.tolist()))
        t_last = float(times[-1])
        departed = advance_to(t_last, offered, outcomes)
        if trace:
            lines += _trace_lines(suffix, departed, sum(state.occupancy), offered, outcomes)

        counts_end = state.window_counters()
        wm = finalize_window(*(e - s for e, s in zip(counts_end, counts_start)),
                             *state.integral, t_last - t_start, config.epsilon_floor)
        windows.append(wm)
        counts_start, t_start = counts_end, t_last
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
    departed = advance_to(_INF)
    if trace:
        trace.write("".join(_trace_lines(suffix, departed, 0)))

    totals = RunTotals(*(dict(zip(RequestClass, pair)) for pair in (
        state.arrivals, state.admitted, state.blocked, state.completed, state.expired,
        state.occupancy)))
    _audit(totals)

    return SimReport(windows=windows, param_trajectory=trajectory,
                     cumulative=cumulative_metrics(windows, config.epsilon_floor),
                     totals=totals)
