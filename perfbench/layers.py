"""Per-layer tracing for the benchmark's traced run.

The wrappers are installed from the benchmark's side, around the entry points
of each synsim module; nothing under src/ knows about them.  Counters and
self times stay in memory and are read out when the traced calls end.
`Tracer.remove` puts every original back, so untraced calls never pass
through a wrapper.

Self time: a wrapper times its call and subtracts the time of the wrapped
calls made inside it.  Self times therefore telescope: summed over all
layers they equal the top-level spans (each workload call in the main
process, or each sweep cell in a pool worker).  A wrapper's own bookkeeping
outside its timed region lands in its caller's self time, which is why the
traced run also reports the tracing overhead.
"""

from __future__ import annotations

import itertools
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

from synsim import automata, controller, engine, harness

clock = time.perf_counter

# every layer with a self time; "harness" is the top-level span's own time
SELF_LAYERS = (
    "engine.sample", "engine.admit", "engine.depart", "engine.advance",
    "engine.pop", "engine.params", "engine.loop",
    "metrics.finalize", "metrics.cumulative",
    "controller.update", "automata.select", "automata.update",
    "emit.window_csv", "emit.la_trace", "emit.event_trace", "harness",
)
COUNTERS = ("blocks", "pops", "stale", "evictions", "h_changes",
            "rewards", "updates", "lines", "bytes")


class Layer:
    __slots__ = ("calls", "self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0


class Recorder:
    """Counters, self times and top-level spans of one process, in memory."""

    def __init__(self):
        self.layers = {name: Layer() for name in SELF_LAYERS}
        self.span_s: list[float] = []
        self.reset()

    def reset(self) -> None:
        # in place: the installed wrappers hold references to these objects
        for layer in self.layers.values():
            layer.calls = 0
            layer.self_s = 0.0
        self.span_s.clear()
        self.child_s = 0.0   # time of the wrapped calls inside the open span
        self.heap_peak = 0
        for name in COUNTERS:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {"layers": {n: (l.calls, l.self_s) for n, l in self.layers.items()},
                "counters": {c: getattr(self, c) for c in COUNTERS},
                "heap_peak": self.heap_peak, "span_s": list(self.span_s)}

    def merge(self, snap: dict) -> None:
        for name, (calls, self_s) in snap["layers"].items():
            self.layers[name].calls += calls
            self.layers[name].self_s += self_s
        for name, value in snap["counters"].items():
            setattr(self, name, getattr(self, name) + value)
        self.heap_peak = max(self.heap_peak, snap["heap_peak"])
        self.span_s.extend(snap["span_s"])


def _timed(rec: Recorder, layer: Layer, fn):
    def timed(*args, **kwargs):
        outer = rec.child_s
        rec.child_s = 0.0
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            layer.self_s += dt - rec.child_s
            layer.calls += 1
            rec.child_s = outer + dt
    return timed


def _admit(rec, timed):
    def admit_or_block(state, cls, now):
        entry = timed(state, cls, now)
        if entry is None:
            rec.blocks += 1
        return entry
    return admit_or_block


def _pop(rec, timed):
    def pop_due(state, until):
        before = len(state.heap)
        entry = timed(state, until)
        popped = before - len(state.heap)
        rec.pops += popped
        rec.stale += popped - (entry is not None)
        # the heap is largest right after an admission, and the next call
        # after an admission is always pop_due or apply_defense_params
        if before > rec.heap_peak:
            rec.heap_peak = before
        return entry
    return pop_due


def _params(rec, timed):
    def apply_defense_params(state, new, now):
        rec.h_changes += new.h != state.params.h
        summary = timed(state, new, now)
        rec.evictions += summary.regular + summary.attack
        rec.heap_peak = max(rec.heap_peak, len(state.heap))
        return summary
    return apply_defense_params


def _update(rec, timed, favorable: bool):
    def update(automaton, i):
        rec.updates += 1
        rec.rewards += favorable
        return timed(automaton, i)
    return update


def _event_writer(rec, layer, f):
    """File stand-in whose write is timed and counted; the trace is ASCII."""
    timed = _timed(rec, layer, f.write)

    def write(text):
        rec.lines += text.count("\n")
        rec.bytes += len(text)
        return timed(text)
    return SimpleNamespace(write=write)


def _loop(rec, timed, write_layer):
    def run_simulation(config, controller=None, seed=None, event_trace=None):
        if event_trace is not None:
            event_trace = _event_writer(rec, write_layer, event_trace)
        return timed(config, controller=controller, seed=seed, event_trace=event_trace)
    return run_simulation


# The tracer installed in this process.  A forked pool worker inherits the
# parent's wrappers, and finds their recorder through this name.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self):
        self.rec = Recorder()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, owner, name: str, make) -> None:
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> Tracer:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        rec = self.rec
        L = rec.layers

        def timed(layer):
            return lambda fn: _timed(rec, L[layer], fn)

        w = self._wrap
        w(engine._ExpStream, "draw", timed("engine.sample"))
        w(engine.BacklogState, "admit_or_block",
          lambda fn: _admit(rec, _timed(rec, L["engine.admit"], fn)))
        w(engine.BacklogState, "depart", timed("engine.depart"))
        w(engine.BacklogState, "advance_to", timed("engine.advance"))
        w(engine.BacklogState, "pop_due",
          lambda fn: _pop(rec, _timed(rec, L["engine.pop"], fn)))
        w(engine.BacklogState, "apply_defense_params",
          lambda fn: _params(rec, _timed(rec, L["engine.params"], fn)))
        w(engine, "finalize_window", timed("metrics.finalize"))
        w(engine, "cumulative_metrics", timed("metrics.cumulative"))
        w(controller.LaController, "on_window_end", timed("controller.update"))
        w(controller.StaticController, "on_window_end", timed("controller.update"))
        w(automata.Automaton, "select", timed("automata.select"))
        w(automata.Automaton, "reward",
          lambda fn: _update(rec, _timed(rec, L["automata.update"], fn), True))
        w(automata.Automaton, "penalty",
          lambda fn: _update(rec, _timed(rec, L["automata.update"], fn), False))
        w(harness, "window_csv", timed("emit.window_csv"))
        w(harness, "la_trace_csv", timed("emit.la_trace"))
        w(harness, "run_simulation",
          lambda fn: _loop(rec, _timed(rec, L["engine.loop"], fn), L["emit.event_trace"]))
        w(harness, "ProcessPoolExecutor", lambda cls: TracedPool)
        _ACTIVE = self
        return self

    def remove(self) -> bool:
        """Restore every original; True when all of them are back in place."""
        global _ACTIVE
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        _ACTIVE = None
        return all(vars(owner)[name] is original for owner, name, original in saved)

    def top_span(self, fn, *args):
        """Run fn as a top-level span; its time not covered by layers is 'harness'."""
        rec = self.rec
        rec.child_s = 0.0
        t0 = clock()
        result = fn(*args)
        dt = clock() - t0
        harness_layer = rec.layers["harness"]
        harness_layer.self_s += dt - rec.child_s
        harness_layer.calls += 1
        rec.child_s = 0.0
        rec.span_s.append(dt)
        return result


def _traced_cell(fn, *args):
    tracer = _ACTIVE or Tracer().install()
    tracer.rec.reset()
    row = tracer.top_span(fn, *args)
    return row, tracer.rec.snapshot()


class TracedPool(ProcessPoolExecutor):
    """Process pool whose workers trace each cell and return its counters with the row."""

    def map(self, fn, *iterables, **kwargs):
        parent = _ACTIVE
        for row, snap in super().map(_traced_cell, itertools.repeat(fn), *iterables,
                                     **kwargs):
            parent.rec.merge(snap)
            yield row


def report(rec: Recorder, n_calls: int, traced_wall_s: list[float],
           untraced_wall_s: float, workers: int, uses_pool: bool) -> dict:
    """Per-layer metrics as {name: (value, unit)}, per workload call."""
    L = rec.layers
    self_total = sum(layer.self_s for layer in L.values())

    def calls(name):
        return L[name].calls / n_calls

    def self_s(name):
        return L[name].self_s / n_calls

    def frac(num, den):
        return num / den if den else 0.0

    cells = sorted(rec.span_s) if uses_pool else []
    traced = statistics.median(traced_wall_s)
    m = {
        "engine.sample.calls": (calls("engine.sample"), "count"),
        "engine.sample.self_s": (self_s("engine.sample"), "s"),
        "engine.admit.calls": (calls("engine.admit"), "count"),
        "engine.admit.self_s": (self_s("engine.admit"), "s"),
        "engine.block_frac": (frac(rec.blocks, L["engine.admit"].calls), "frac"),
        "engine.depart.self_s": (self_s("engine.depart"), "s"),
        "engine.advance.calls": (calls("engine.advance"), "count"),
        "engine.advance.self_s": (self_s("engine.advance"), "s"),
        "engine.pop.calls": (calls("engine.pop"), "count"),
        "engine.pop.self_s": (self_s("engine.pop"), "s"),
        "engine.pop.stale_frac": (frac(rec.stale, rec.pops), "frac"),
        "engine.heap.peak": (rec.heap_peak, "count"),
        "engine.params.calls": (calls("engine.params"), "count"),
        "engine.params.evictions": (rec.evictions / n_calls, "count"),
        "engine.params.self_s": (self_s("engine.params"), "s"),
        "engine.loop.self_s": (self_s("engine.loop"), "s"),
        "metrics.finalize.calls": (calls("metrics.finalize"), "count"),
        "metrics.finalize.self_s": (self_s("metrics.finalize"), "s"),
        "metrics.cumulative.self_s": (self_s("metrics.cumulative"), "s"),
        "controller.update.calls": (calls("controller.update"), "count"),
        "controller.update.self_s": (self_s("controller.update"), "s"),
        "controller.favorable_frac": (frac(rec.rewards, rec.updates), "frac"),
        "controller.h_change_frac": (frac(rec.h_changes, L["engine.params"].calls), "frac"),
        "automata.select.calls": (calls("automata.select"), "count"),
        "automata.select.self_s": (self_s("automata.select"), "s"),
        "automata.update.self_s": (self_s("automata.update"), "s"),
        "emit.window_csv.self_s": (self_s("emit.window_csv"), "s"),
        "emit.la_trace.self_s": (self_s("emit.la_trace"), "s"),
        "emit.event_trace.lines": (rec.lines / n_calls, "count"),
        "emit.event_trace.bytes": (rec.bytes / n_calls, "bytes"),
        "emit.event_trace.write_s": (self_s("emit.event_trace"), "s"),
        "harness.self_s": (self_s("harness"), "s"),
        "pool.cells": (len(cells) / n_calls, "count"),
        "pool.cell_s.p50": (statistics.median(cells) if cells else 0.0, "s"),
        "pool.cell_s.p87": (statistics.quantiles(cells, n=100, method="inclusive")[86]
                            if len(cells) > 1 else 0.0, "s"),
        "pool.cell_s.max": (cells[-1] if cells else 0.0, "s"),
        "pool.busy_frac": (frac(sum(cells), workers * sum(traced_wall_s)), "frac"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.overhead_s": (traced - untraced_wall_s, "s"),
    }
    for name in SELF_LAYERS:
        m[f"{name}.share"] = (frac(L[name].self_s, self_total), "frac")
    return m


def self_times_add_up(rec: Recorder) -> bool:
    """Layer self times sum to the top-level spans (the shares add up to 1)."""
    total = sum(layer.self_s for layer in rec.layers.values())
    spans = sum(rec.span_s)
    return spans > 0 and abs(total - spans) <= 1e-6 * spans
