"""Deterministic discrete-event loop for the half-open connection backlog.

Two merged Poisson arrival streams feed a capacity-m buffer.  A regular
entry leaves by handshake completion (Exp(mu)) or by hitting the hold
time h, whichever comes first; an attack entry only ever times out.  The
controller is consulted at every window boundary and may change (h, m)
mid-run: h is retroactive (residents past the new timeout are evicted on
the spot), an m shrink evicts nothing and simply blocks admissions until
the buffer drains below the new cap.

Bookkeeping keeps one representation per concept.  Every per-class count
(arrivals, admissions, blocks, completions, expiries, occupancy, the
normalized occupancy integral) is a [regular, attack] pair indexed by the
RequestClass int; an entry is resident iff it is in the departure heap,
one item per entry.  A window's metrics are the differences of the running
counters, which the state lists in finalize_window's argument order.

One master seed derives four independent RNG streams (regular arrivals,
attack arrivals, entry lifetimes, action selection), so swapping the
controller never perturbs the traffic sample path.

The loop does little Python work per event.  Each arrival stream is read
as absolute times, sampled 8192 gaps at a time and summed per block with
np.cumsum (the same left-to-right sums as adding one gap at a time);
lifetimes are drawn one at a time, on admission.  The loop passes the class
as a plain 0/1 int, asks the heap for departures only when its top is due,
and collects the event trace per window, which it writes in one call.  A
run is a whole number of windows, so every arrival lands in one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .controller import make_controller
from .domain import DefenseParams, RequestClass, SimConfig, validate_config
from .metrics import WindowMetrics, cumulative_metrics, finalize_window

_INF = math.inf
REG = RequestClass.REGULAR
CLASS_LABEL = tuple(cls.name.lower() for cls in RequestClass)  # event-trace text

# event-kind labels used in traces
EV_ADMIT = "admit"
EV_BLOCK = "block"
EV_COMPLETE = "complete"
EV_EXPIRE = "expire"
EV_PARAMS = "params"


class _ExpStream:
    """Blockwise exponential sampler; rate 0 never fires.

    A stream is read either gap by gap with draw(), or as absolute times
    with times(): the running left-to-right sum of the same gaps, one
    np.cumsum per block, bit for bit the sum `t = t + draw()` would build.
    """

    __slots__ = ("rng", "rate", "block", "buf", "pos")

    def __init__(self, rng: np.random.Generator, rate: float, block: int = 8192):
        self.rng = rng
        self.rate = rate
        self.block = block
        self.buf = [] if rate > 0 else None  # filled on the first draw
        self.pos = 0

    def _gaps(self) -> np.ndarray:
        return self.rng.exponential(1.0 / self.rate, self.block)

    def draw(self) -> float:
        buf = self.buf
        if buf is None:
            return _INF
        pos = self.pos
        if pos >= len(buf):
            self.buf = buf = self._gaps().tolist()
            pos = 0
        self.pos = pos + 1
        return buf[pos]

    def times(self) -> Iterator[float]:
        if self.buf is None:
            return itertools.repeat(_INF)
        return itertools.chain.from_iterable(self._time_blocks())

    def _time_blocks(self) -> Iterator[list[float]]:
        t = 0.0
        while True:
            gaps = self._gaps()
            gaps[0] += t  # the block's first sum starts from the last time
            block = np.cumsum(gaps).tolist()
            yield block
            t = block[-1]


class _Entry:
    __slots__ = ("cls", "admit", "service", "hold_unit", "dep", "cause")

    def __init__(self, cls, admit, service, hold_unit, h):
        self.cls = cls            # 0 regular, 1 attack: the index into every pair
        self.admit = admit
        self.service = service    # absolute completion delay; inf for attack
        self.hold_unit = hold_unit  # Exp(1) draw, None in deterministic mode
        # schedule(h), inlined: this runs once per admission
        timeout = admit + (h if hold_unit is None else hold_unit * h)
        completion = admit + service
        if completion < timeout:
            self.dep = completion
            self.cause = EV_COMPLETE
        else:
            self.dep = timeout
            self.cause = EV_EXPIRE

    def schedule(self, h: float) -> None:
        """Recompute departure time and cause under hold time h."""
        hold = h if self.hold_unit is None else self.hold_unit * h
        timeout = self.admit + hold
        completion = self.admit + self.service
        if completion < timeout:
            self.dep = completion
            self.cause = EV_COMPLETE
        else:
            self.dep = timeout
            self.cause = EV_EXPIRE


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
    """Mutable backlog: resident heap, (h, m), per-class counts and integrals."""

    def __init__(self, params: DefenseParams, hold_mode: str, mu: float,
                 lifetime_rng: np.random.Generator):
        self.params = params
        self.exponential_hold = hold_mode == "exponential"
        self.mu = mu
        self.lifetime = _ExpStream(lifetime_rng, 1.0)  # unit-rate draws
        self.clock = 0.0
        self.heap: list = []  # (dep, admission number, entry), one per resident
        # [regular, attack] pairs
        self.arrivals = [0, 0]
        self.admitted = [0, 0]
        self.blocked = [0, 0]
        self.completed = [0, 0]
        self.expired = [0, 0]
        self.occupancy = [0, 0]
        self.integral = [0.0, 0.0]  # time integral of occupancy / m

    # -- time ------------------------------------------------------------

    def advance_to(self, t: float) -> None:
        """Accumulate occupancy integrals up to t; m is constant in between."""
        dt = t - self.clock
        if dt > 0.0:
            m = self.params.m
            occupancy = self.occupancy
            integral = self.integral
            integral[0] += dt * occupancy[0] / m
            integral[1] += dt * occupancy[1] / m
        self.clock = t

    def window_counters(self) -> tuple:
        """Running counters in finalize_window's argument order, duration last."""
        return (*self.arrivals, *self.blocked, self.completed[REG], self.expired[REG],
                *self.integral, self.clock)

    # -- admissions ------------------------------------------------------

    def admit_or_block(self, cls: int, now: float) -> _Entry | None:
        """Admit if a slot is free, else count a block.  Returns the entry."""
        self.arrivals[cls] += 1
        occupancy = self.occupancy
        params = self.params
        if occupancy[0] + occupancy[1] >= params.m:
            self.blocked[cls] += 1
            return None
        self.admitted[cls] += 1
        occupancy[cls] += 1
        service = _INF if cls else self.lifetime.draw() / self.mu
        hold_unit = self.lifetime.draw() if self.exponential_hold else None
        entry = _Entry(cls, now, service, hold_unit, params.h)
        heappush(self.heap, (entry.dep, self.admitted[0] + self.admitted[1], entry))
        return entry

    # -- departures ------------------------------------------------------

    def depart(self, entry: _Entry) -> None:
        self.occupancy[entry.cls] -= 1
        if entry.cause is EV_COMPLETE:
            self.completed[entry.cls] += 1
        else:
            self.expired[entry.cls] += 1

    def pop_due(self, until: float) -> _Entry | None:
        """Pop the next departure if it is due by until; the top is a resident."""
        heap = self.heap
        if heap and heap[0][0] <= until:
            return heappop(heap)[2]
        return None

    # -- parameter changes -----------------------------------------------

    def apply_defense_params(self, new: DefenseParams, now: float) -> EvictionSummary:
        """Install new (h, m).  h is retroactive; m-shrink never evicts.

        An h change evicts the residents now due and rebuilds the heap in
        place (the run loop holds it), each item keeping its tiebreak.
        """
        h_changed = new.h != self.params.h
        self.params = new
        if not h_changed:
            return EvictionSummary()
        counts = [0, 0]
        kept = []
        for _, number, entry in self.heap:
            entry.schedule(new.h)
            if entry.dep <= now:
                entry.cause = EV_EXPIRE
                self.depart(entry)
                counts[entry.cls] += 1
            else:
                kept.append((entry.dep, number, entry))
        heapify(kept)
        self.heap[:] = kept
        return EvictionSummary(*counts)


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
    occupancy = state.occupancy
    suffix = f"\t{params.m}\t{params.h!r}\n"  # the m and h columns

    def emit(t: float, kind: str, label: str) -> None:
        lines.append(f"{t!r}\t{kind}\t{label}\t{occupancy[0] + occupancy[1]}{suffix}")

    wsize = config.window_size
    n_windows = config.total_requests // wsize
    windows: list[WindowMetrics] = []
    trajectory: list[tuple[int, DefenseParams]] = [(0, params)]
    win_start = state.window_counters()

    heap = state.heap
    pop_due, depart, advance_to = state.pop_due, state.depart, state.advance_to
    admit_or_block = state.admit_or_block
    next_reg_time = reg_stream.times().__next__
    next_att_time = att_stream.times().__next__
    next_reg = next_reg_time()
    next_att = next_att_time()

    for window in range(1, n_windows + 1):
        for _ in itertools.repeat(None, wsize):
            if next_reg <= next_att:
                t_arr = next_reg
                cls = 0
                next_reg = next_reg_time()
            else:
                t_arr = next_att
                cls = 1
                next_att = next_att_time()
            # same-time tie: departures run before the arrival
            while heap and heap[0][0] <= t_arr:
                entry = pop_due(t_arr)
                advance_to(entry.dep)
                depart(entry)
                if trace:
                    emit(entry.dep, entry.cause, CLASS_LABEL[entry.cls])
            advance_to(t_arr)
            admitted = admit_or_block(cls, t_arr)
            if trace:
                emit(t_arr, EV_ADMIT if admitted else EV_BLOCK, CLASS_LABEL[cls])

        win_end = state.window_counters()
        wm = finalize_window(*(e - s for e, s in zip(win_end, win_start)),
                             epsilon_floor=config.epsilon_floor)
        windows.append(wm)
        win_start = win_end
        new_params = controller.on_window_end(wm, rng_la)
        if window < n_windows:  # no window is left to act on the last answer
            state.apply_defense_params(new_params, t_arr)
            if new_params != params and trace:
                suffix = f"\t{new_params.m}\t{new_params.h!r}\n"
                emit(t_arr, EV_PARAMS, "-")
            params = new_params
            trajectory.append((window, params))
        if trace:
            trace.write("".join(lines))
            lines.clear()

    # drain all residents after the last arrival
    while heap:
        entry = pop_due(_INF)
        advance_to(entry.dep)
        depart(entry)
        if trace:
            emit(entry.dep, entry.cause, CLASS_LABEL[entry.cls])
    if trace:
        trace.write("".join(lines))

    totals = RunTotals(*(dict(zip(RequestClass, pair)) for pair in (
        state.arrivals, state.admitted, state.blocked, state.completed, state.expired,
        state.occupancy)))
    _audit(totals)

    return SimReport(
        windows=windows,
        param_trajectory=trajectory,
        cumulative=cumulative_metrics(windows, config.epsilon_floor),
        horizon=t_arr,
        totals=totals,
    )
