"""Deterministic simulator of the half-open connection backlog.

Poisson arrivals, regular and attack, feed a capacity-m buffer.  A regular
entry leaves by handshake completion (Exp(mu)) or by hitting the hold
time h, whichever comes first; an attack entry only ever times out.  The
controller is consulted at every window boundary and may change (h, m)
mid-run: h is retroactive (a resident past the new timeout departs at the
change, and the next settle takes it out as an expiry), an m shrink evicts
nothing and simply blocks admissions until the buffer drains below the new cap.

Traffic: one marked stream.  The regular (rate lambda1) and attack
(k * lambda1) streams are independent Poisson streams, so together they are
one Poisson stream of rate lambda1 * (1 + k) whose arrivals are attacks
independently with probability k / (1 + k) (Kingman, Poisson Processes,
1993).  The run samples that stream with mean gap 1 / lambda1 / (1 + k) (the
rate itself may overflow) and marks an arrival an attack iff a uniform draw
is below k / (1 + k).  It samples a block of whole windows, about
_SAMPLE_BLOCK arrivals (a larger window is its own block), at a time, so a
block's draws and records cost their fixed numpy overhead once.  Its times
are one np.cumsum of its gaps from the last time, the left-to-right sums
`t = t + gap` builds, and numpy draws the same values however the draws are
chunked, so the block size moves no arrival.  A run is a whole number of
windows, so every arrival lands in one.

One master seed derives four independent RNG streams (arrival times, class
marks, entry lifetimes, action selection), so swapping the controller never
perturbs the traffic sample path.  Lifetimes are drawn by
arrival, not by admission: every arrival of a window gets a service unit and
a hold unit from its window's (2, n) slice of one (windows, 2, n) draw per
block of windows, whatever its class or outcome.  Two runs of one seed with
different controllers therefore give every arrival the same lifetimes, so a
static and an adaptive cell differ only by (h, m).

Admission: the slot index.  Whether an arrival at t is admitted depends
only on how many residents are still there at t.  Once per window, before
its admissions, open_window indexes the slots from the records: heap, a
min-heap of the latest m resident departures (with no resident, one
never-used slot, free from 0.0), and unused, the m - len(heap) other slots.
An arrival at t reuses heap[0]'s slot if that entry has left by t
(heapreplace), else takes an unused slot (heappush), else is blocked.
Arrivals come in time order, so an entry <= t stays free, and this is the
rule "take out every departure due by t, then admit iff occupancy < m", tie
included.  After its admissions the heap holds at most the window's starting
residents plus its admissions, whatever m is.  h is constant within a
window, so each arrival's departure time, were it admitted, is computed for
the whole window in numpy (_schedule) before admission runs.  The run loop
makes one admit_or_block call per arrival, whose answers form the window's
admission mask, which the settle and the event trace share.

Departures: the settle.  Once per window, advance_to keeps the admitted
columns of the offered records as new residents and takes out the
departures due by the window's last arrival.  A class's occupancy integral
over the window [clock, until] is the sum, over its records resident in it,
of min(dep, until) - max(admit, clock), so no event order is needed: the
settle takes one np.bincount of those spans / m over the records, in
admission order, and keeps it as the window's integral.  (h, m) changes
only between windows, so m is constant within a settle.  The drain after
the last arrival is the same settle with until = inf.  Columns are kept or
taken out with ndarray.compress, and depart counts with count_nonzero: only a
regular entry ever completes, since an attack entry's service is inf.  Only
the event trace orders events, in trace_events, which runs only when a trace
is written.  A trace line joins the repr of its time, a tail of kind, class
and occupancy from a bounded cache (_TAILS), and the m and h columns.
replay_trace is the format's one reader: it replays the lines back to the
run totals they give, checking each against the rules the writer keeps.

Bookkeeping keeps one representation per concept.  Every per-class count
(arrivals, admissions, completions, expiries) is a [regular, attack] pair
indexed by the RequestClass int; blocks are arrivals less admissions, and
each resident is one column of a records array, so the occupancy is a count
of the records.  The run audit compares two tallies kept apart after the
final drain: admissions from admit_or_block's answers and departures from
depart, so a record the drain left behind fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappush, heapreplace

import numpy as np

from .controller import make_controller
from .domain import DefenseParams, RequestClass, SimConfig
from .metrics import WindowMetrics, cumulative_metrics, finalize_window

_INF = math.inf
REG, ATT = RequestClass.REGULAR, RequestClass.ATTACK
CLASS_LABEL = tuple(cls.name.lower() for cls in RequestClass)  # event-trace text

# the kind and class columns of an event-trace line, indexed by 2 * kind + class
EVENT_LABELS = tuple(f"{kind}\t{label}" for kind in ("admit", "block", "complete", "expire")
                     for label in CLASS_LABEL)

# columns of a resident record; COMPLETE is 1.0 when the entry will complete
ADMIT, CLS, SERVICE, HOLD_UNIT, DEP, COMPLETE = range(6)
_NO_RECORDS = np.empty((6, 0))
_NO_ARRIVALS = np.empty(0, bool)  # the admission mask of no arrivals
_SAMPLE_BLOCK = 4096  # the arrivals a run samples at a time, in whole windows
_TAIL_CACHE_BOUND = 1 << 14  # event-trace tails cached: 8 codes x occupancies 0-2047


class _ExpStream:
    """Exponential gaps of one mean, taken as their running sums.

    take(n) returns the next n times: the running left-to-right sum of n
    gaps, one np.cumsum carrying on from the last time taken, bit for bit
    the sum `t = t + gap` builds, however the draws are chunked.  A sum past
    the largest float is inf.
    """

    __slots__ = ("rng", "mean", "last")

    def __init__(self, rng: np.random.Generator, mean: float):
        self.rng = rng
        self.mean = mean
        self.last = 0.0  # the latest time taken

    def draw(self, n: int) -> np.ndarray:
        return self.rng.exponential(self.mean, n)

    def take(self, n: int) -> np.ndarray:
        gaps = self.draw(n)
        with np.errstate(over="ignore"):
            gaps[0] += self.last  # the first sum starts from the last time
            times = np.cumsum(gaps)
        self.last = times[-1]
        return times


def _per_class(classes: np.ndarray) -> list[int]:
    """How many of the classes (0 regular, 1 attack) are of each class."""
    n_attack = int(np.count_nonzero(classes))
    return [len(classes) - n_attack, n_attack]


def _schedule(records: np.ndarray, h: float) -> None:
    """Set each record's departure time and cause under hold time h."""
    admit = records[ADMIT]
    completion = admit + records[SERVICE]
    with np.errstate(over="ignore"):  # a timeout past the largest float is inf: never
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
    completed: dict
    expired: dict

    @property
    def blocked(self) -> dict:
        """Blocks of each class: the arrivals not admitted."""
        return {cls: n - self.admitted[cls] for cls, n in self.arrivals.items()}


def _totals(*pairs: list[int]) -> RunTotals:
    """RunTotals of [regular, attack] pairs of arrivals, admissions, completions, expiries."""
    return RunTotals(*(dict(zip(RequestClass, pair)) for pair in pairs))


@dataclass
class SimReport:
    windows: list[WindowMetrics]
    param_trajectory: list[DefenseParams]  # window i ran under entry i
    cumulative: WindowMetrics
    totals: RunTotals

    @property
    def legit_expired_fraction(self) -> float:
        admitted = self.totals.admitted[REG]
        return self.totals.expired[REG] / admitted if admitted else 0.0


class BacklogState:
    """Mutable backlog: resident records, (h, m), counts, the window's slot index."""

    def __init__(self, params: DefenseParams, hold_mode: str, mu: float,
                 lifetime_rng: np.random.Generator):
        self.params = params
        self.exponential_hold = hold_mode == "exponential"
        self.mu = mu
        self.lifetime_rng = lifetime_rng
        self.clock = 0.0
        self.records = np.empty((6, 0))  # a column per resident, in admission order
        # [regular, attack] pairs
        self.arrivals = [0, 0]
        self.admitted = [0, 0]
        self.completed = [0, 0]
        self.expired = [0, 0]
        self.integral = [0.0, 0.0]  # the last settle's time integral of occupancy / m

    @property
    def occupancy(self) -> list[int]:
        """Residents of each class: the records still held."""
        return _per_class(self.records[CLS])

    @property
    def blocked(self) -> list[int]:
        """Blocks of each class: the arrivals not admitted."""
        return [n - a for n, a in zip(self.arrivals, self.admitted)]

    def window_counters(self) -> tuple:
        """Running counts in finalize_window's argument order."""
        return (*self.arrivals, *self.blocked, self.completed[REG], self.expired[REG])

    # -- admissions ------------------------------------------------------

    def offered(self, times: np.ndarray, classes: np.ndarray, windows: int) -> np.ndarray:
        """Records of the arrivals of `windows` equal windows, not yet scheduled.

        Every arrival gets a service unit and a hold unit whatever its class,
        hold mode or outcome: one (windows, 2, n) draw, the same stream as a
        (2, n) draw per window.  An attack entry's service is inf, and in
        deterministic mode the hold unit is 1.
        """
        units = self.lifetime_rng.standard_exponential((windows, 2, len(times) // windows))
        records = np.empty((6, len(times)))
        records[ADMIT] = times
        records[CLS] = classes
        with np.errstate(over="ignore"):  # a service past the largest float is inf: never
            records[SERVICE] = np.where(classes == 0, units[:, 0].ravel() / self.mu, _INF)
        records[HOLD_UNIT] = units[:, 1].ravel() if self.exponential_hold else 1.0  # 1.0 * h == h
        return records

    def open_window(self) -> None:
        """Set heap and unused, the slot index of the window's admissions (see the module doc)."""
        m = self.params.m
        self.heap = np.sort(self.records[DEP])[-m:].tolist() or [0.0]  # sorted, so a heap
        self.unused = m - len(self.heap)

    def admit_or_block(self, dep: float, now: float) -> bool | None:
        """Admit iff a slot is free at now: True if admitted, None if blocked.

        dep is the arrival's departure time from _schedule; the arrival is
        counted and its entry recorded when its window settles.
        """
        heap = self.heap
        if heap[0] <= now:  # its entry has left by now: reuse the slot
            heapreplace(heap, dep)
        elif self.unused:
            self.unused -= 1
            heappush(heap, dep)
        else:
            return None
        return True

    # -- departures ------------------------------------------------------

    def pop_due(self, until: float) -> np.ndarray:
        """Take out the residents admitted before until that leave by until,
        in admission order, as the records are kept."""
        records = self.records
        due = (records[DEP] <= until) & (records[ADMIT] < until)
        self.records = records.compress(~due, axis=1)
        return records.compress(due, axis=1)

    def depart(self, records: np.ndarray) -> None:
        """Count the departed records' completions and expiries."""
        completed = int(np.count_nonzero(records[COMPLETE]))
        departed = _per_class(records[CLS])
        self.completed[REG] += completed
        self.expired[REG] += departed[REG] - completed
        self.expired[ATT] += departed[ATT]

    # -- time ------------------------------------------------------------

    def advance_to(self, until: float, offered: np.ndarray = _NO_RECORDS,
                   admitted: np.ndarray = _NO_ARRIVALS) -> np.ndarray:
        """Settle the window whose last arrival is at until; until=inf drains.

        offered (the window's records) and admitted (admit_or_block's
        answers as a mask) are the window's arrivals.  Counts them, keeps the
        admitted records as residents, sets integral to each class's
        occupancy / m integral over [clock, until] and takes out the
        departures due.  Returns the records taken out, in admission order.
        """
        kept = offered.compress(admitted, axis=1)  # the new residents
        arrivals, admits = _per_class(offered[CLS]), _per_class(kept[CLS])
        for cls in (0, 1):
            self.arrivals[cls] += arrivals[cls]
            self.admitted[cls] += admits[cls]
        records = np.concatenate((self.records, kept), axis=1)
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
        """Install new (h, m) at now, the last settle's until.  h is
        retroactive; m-shrink never evicts.  An h change reschedules the
        residents; one due before now is evicted: it departs at now, by
        timeout, and the next settle takes it out (span 0, slot free).
        Returns the evictions of each class."""
        counts = [0, 0]
        if new.h != self.params.h:
            _schedule(self.records, new.h)
            evicted = self.records[DEP] < now
            self.records[DEP, evicted] = now
            counts = _per_class(self.records[CLS, evicted])
        self.params = new
        return EvictionSummary(*counts)


def trace_events(departed: np.ndarray, occupancy: int, offered: np.ndarray = _NO_RECORDS,
                 admitted: np.ndarray = _NO_ARRIVALS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A settle's events in trace order: their times, their codes (2 * kind +
    class; kind 0-3 is admit, block, complete, expire) and the occupancy after
    each.  departed is what advance_to returned, occupancy the total after it,
    and offered and admitted are advance_to's arguments.

    Events go in time order, and events of one instant by rank: departures
    0, arrivals 1, zero-lifetime departures (departure == admission) 2, so a
    departure comes first on a tie, except that a zero lifetime follows its
    own admission.  Departures go in (time, admission number) order.  This
    assumes no two arrivals share an instant, which has probability 0.
    """
    dep, times = departed[DEP], offered[ADMIT]
    t = np.concatenate((dep, times))
    rank = np.concatenate((2 * (dep == departed[ADMIT]), np.ones(len(times), int)))
    order = np.lexsort((rank, t))  # stable: departures in admission order
    cls = np.concatenate((departed[CLS], offered[CLS]))[order]
    kind = np.concatenate((3 - departed[COMPLETE], ~admitted))[order]
    change = np.concatenate((np.full(len(dep), -1), admitted))[order]
    after = occupancy - change.sum() + np.cumsum(change)
    return t[order], (2 * kind + cls).astype(np.intp), after


class _TailCache(dict):
    """Event-trace line tails (the kind, class and occupancy columns, each
    after a tab), keyed occupancy << 3 | code.

    A miss builds its tail; a miss on a full cache clears it first, so it
    never holds more than _TAIL_CACHE_BOUND tails, however high the occupancy
    climbs.  A tail depends on its key alone, so every run can share one cache.
    """

    def __missing__(self, key: int) -> str:
        if len(self) >= _TAIL_CACHE_BOUND:
            self.clear()
        tail = self[key] = f"\t{EVENT_LABELS[key & 7]}\t{key >> 3}"
        return tail


_TAILS = _TailCache()


def _trace_lines(suffix: str, *settle) -> str:
    """The lines of trace_events(*settle), each ending in suffix.

    A line is three pieces, joined in one str.join: the repr of its time (a
    float's repr is its str), its tail from _TAILS and suffix.  An occupancy
    is at most the largest m in force, so on the paper's grid (m <= 1024) a
    run has a few thousand distinct tails and almost every lookup hits.
    """
    times, codes, after = trace_events(*settle)
    pieces = [suffix] * (3 * len(times))  # time, tail, suffix of each line
    pieces[::3] = map(repr, times.tolist())
    pieces[1::3] = map(_TAILS.__getitem__, (after << 3 | codes).tolist())
    return "".join(pieces)


# the occupancy change of each line kind
_STEP = {"admit": 1, "block": 0, "complete": -1, "expire": -1, "params": 0}


def replay_trace(text: str) -> RunTotals:
    """Replay an event trace line by line; return the RunTotals its lines give.

    Raises ValueError naming the first line that breaks a rule, and the rule:
    times never decrease; each line's occupancy is the running count, ending
    at 0; an admit comes only while the count before it is below its m, a
    block only while it is not; m and h change only on a params line; at one
    instant, a departure follows an arrival only as an expire after a params
    line that changed h (an eviction), or as the one zero-lifetime departure
    of that instant's admission, of its class.  Blind spot: a resident of that
    class that leaves then, traced after the admission, reads as that zero
    lifetime; the writer traces it before.
    """
    lines = {kind: [0, 0] for kind in ("admit", "block", "complete", "expire")}
    count, now, columns, number = 0, -_INF, None, 0

    def broken(rule: str) -> ValueError:
        return ValueError(f"event trace line {number}: {rule}")

    for number, line in enumerate(text.splitlines(), 1):
        t, kind, label, occupancy, *m_h = line.split("\t")
        step, t = _STEP[kind], float(t)
        if t != now:
            if t < now:
                raise broken("time decreases")
            now, arrived, zero, evicting = t, False, None, False
        if kind == "params":  # an h change evicts at its instant
            evicting = evicting or columns is not None and m_h[1] != columns[1]
        elif columns not in (None, m_h):
            raise broken("m or h changes without a params line")
        columns = m_h
        count += step
        if int(occupancy) != count:
            raise broken(f"occupancy {occupancy} is not the running count {count}")
        if kind == "params":
            continue
        cls = CLASS_LABEL.index(label)
        if step >= 0:  # an arrival
            if (count - step < int(m_h[0])) != bool(step):
                raise broken("admit at capacity" if step else "block below capacity")
            arrived, zero = True, cls if step else None
        elif arrived and not (kind == "expire" and evicting):
            if zero != cls:
                raise broken(f"{kind} after an arrival at its instant")
            zero = None  # the admission's one zero-lifetime departure
        lines[kind][cls] += 1
    if count:
        raise broken(f"the trace ends with {count} residents")
    return _totals([a + b for a, b in zip(lines["admit"], lines["block"])], lines["admit"],
                   lines["complete"], lines["expire"])


class ConservationError(AssertionError):
    pass


def _audit(totals: RunTotals) -> None:
    for cls in RequestClass:
        if totals.admitted[cls] != totals.completed[cls] + totals.expired[cls]:
            raise ConservationError(f"{CLASS_LABEL[cls]}: admitted != completed + expired")


def run_simulation(config: SimConfig, controller=None, seed: int | None = None,
                   event_trace=None) -> SimReport:
    """Run the full event loop and return a complete report.

    Same (config, seed) always yields a bit-identical report.  event_trace,
    if given, is a writable text file receiving one tab-separated line per
    event: time, kind, class, occupancy-after, m, h.
    """
    if seed is None:
        seed = config.master_seed
    if controller is None:
        controller = make_controller(config)

    ss = np.random.SeedSequence(seed)
    rng_time, rng_class, rng_life, rng_la = map(np.random.default_rng, ss.spawn(4))
    traffic = config.traffic
    # not 1 / (lambda1 + lambda2): that sum is inf at lambda1 = 1e308, k = 1
    arrivals = _ExpStream(rng_time, 1.0 / traffic.lambda1 / (1.0 + traffic.k))
    attack_share = traffic.k / (1.0 + traffic.k)

    params = controller.initial_params(rng_la)
    state = BacklogState(params, config.hold_mode, traffic.mu, rng_life)

    suffix = f"\t{params.m}\t{params.h}\n"  # the m and h columns

    wsize = config.window_size
    n_windows = config.total_requests // wsize
    windows: list[WindowMetrics] = []
    trajectory = [params]
    counts_start, t_start = state.window_counters(), 0.0

    admit_or_block, advance_to = state.admit_or_block, state.advance_to
    per_block = max(1, _SAMPLE_BLOCK // wsize)  # the windows sampled at a time

    for window in range(n_windows):
        start = window % per_block * wsize
        if not start:  # sample the next block of windows
            n = min(per_block, n_windows - window) * wsize
            classes = (rng_class.random(n) < attack_share).view(np.int8)
            block = state.offered(arrivals.take(n), classes, n // wsize)
            block_times = block[ADMIT].tolist()
        offered = block[:, start:start + wsize]  # a view: _schedule fills its rows
        times = block_times[start:start + wsize]
        _schedule(offered, params.h)
        state.open_window()
        # the admission mask: True admitted, None (a block) False
        admitted = np.fromiter(map(admit_or_block, offered[DEP].tolist(), times), bool, wsize)
        t_last = times[-1]
        departed = advance_to(t_last, offered, admitted)
        if event_trace:
            event_trace.write(_trace_lines(suffix, departed, sum(state.occupancy),
                                           offered, admitted))

        counts_end = state.window_counters()
        wm = finalize_window(*(e - s for e, s in zip(counts_end, counts_start)),
                             *state.integral, t_last - t_start)
        windows.append(wm)
        counts_start, t_start = counts_end, t_last
        new_params = controller.on_window_end(wm, rng_la)
        if window + 1 < n_windows:  # no window is left to act on the last answer
            state.apply_defense_params(new_params, t_last)
            if new_params != params and event_trace:
                suffix = f"\t{new_params.m}\t{new_params.h}\n"
                event_trace.write(f"{t_last}\tparams\t-\t{sum(state.occupancy)}{suffix}")
            params = new_params
            trajectory.append(params)

    # drain all residents after the last arrival
    departed = advance_to(_INF)
    if event_trace:
        event_trace.write(_trace_lines(suffix, departed, 0))

    totals = _totals(state.arrivals, state.admitted, state.completed, state.expired)
    _audit(totals)

    return SimReport(windows=windows, param_trajectory=trajectory,
                     cumulative=cumulative_metrics(windows), totals=totals)
