"""The benchmark's workloads: inputs made from a seed, the timed call, checks.

Every workload is a closed-loop batch call: the benchmark makes one call into
synsim and waits for it to return.  The benchmark's seed is turned into
`SimConfig`s here; the program only ever sees those configs.

A workload has four parts:
  build(seed)                 -> inputs (configs, validated)
  run(inputs, out_dir)        -> raw result; the only timed part
  inspect(inputs, raw, out)   -> Call: events simulated, output files
  check(inputs, files)        -> checks on one call's output files
Every call's files must be byte-identical to the first call's, so checking
the first call's files checks them all.  The reason for each workload is in
README.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from synsim import (DefenseParams, SimConfig, SweepSpec, TrafficModel,
                    erlang_b, run_single, run_sweep, validate_config)
from synsim.harness import trace_ordering_ok

ERLANG_TOL = 0.003
SWEEP_KS = (0.5, 1.0, 1.5, 2.0)
SWEEP_SEEDS_PER_K = 10


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool


@dataclass(frozen=True)
class Call:
    events: int                  # simulated arrivals plus departures
    outputs: tuple[Path, ...]    # files the call wrote, in a fixed order


@dataclass(frozen=True)
class Workload:
    name: str
    uses_pool: bool
    build: Callable
    run: Callable
    inspect: Callable
    check: Callable


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _validated(config: SimConfig) -> SimConfig:
    violations = validate_config(config)
    if violations:
        raise ValueError("invalid benchmark config: " + "; ".join(violations))
    return config


def _run_events(report) -> int:
    t = report.totals
    return sum(t.arrivals.values()) + sum(t.completed.values()) + sum(t.expired.values())


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def digest(paths) -> str:
    """sha256 over the named files' bytes, streamed, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as f:
            while chunk := f.read(1 << 20):
                h.update(chunk)
    return h.hexdigest()


# -- erlang-1m ---------------------------------------------------------------

ERLANG_ARRIVALS = 1_000_000
ERLANG_WINDOW = 1000


def check_erlang(ploss: float, window_rows: int) -> list[Check]:
    expected = erlang_b(10, 5.0)
    return [Check(f"Ploss within {ERLANG_TOL} of erlang_b(10, 5)",
                  abs(ploss - expected) <= ERLANG_TOL),
            Check(f"{ERLANG_ARRIVALS // ERLANG_WINDOW} window rows",
                  window_rows == ERLANG_ARRIVALS // ERLANG_WINDOW)]


def _erlang_build(seed: int) -> SimConfig:
    return _validated(SimConfig(
        master_seed=seed, controller_kind="static", hold_mode="exponential",
        traffic=TrafficModel(lambda1=5.0, k=0.0, mu=1.0),
        total_requests=ERLANG_ARRIVALS, window_size=ERLANG_WINDOW,
        initial_params=DefenseParams(1e9, 10)))


def _erlang_run(config: SimConfig, out: Path):
    return run_single(config, out_path=str(out / "windows.csv"), quiet=True)


def _erlang_inspect(config: SimConfig, raw, out: Path) -> Call:
    report, _ = raw
    return Call(_run_events(report), (out / "windows.csv",))


def _erlang_check(config: SimConfig, files) -> list[Check]:
    rows = _csv_rows(files[0])
    arrivals = sum(int(r["arrivals_regular"]) + int(r["arrivals_attack"]) for r in rows)
    blocked = sum(int(r["blocked_regular"]) + int(r["blocked_attack"]) for r in rows)
    return check_erlang(blocked / arrivals if arrivals else float("nan"), len(rows))


# -- paper-sweep -------------------------------------------------------------

SWEEP_ARRIVALS = 50_000
SWEEP_CELLS = len(SWEEP_KS) * SWEEP_SEEDS_PER_K * 2


def check_sweep(csv_text: str) -> list[Check]:
    """Row count, then criterion 6 (LA beats static on medians) at every k."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    checks = [Check(f"{SWEEP_CELLS} sweep rows", len(rows) == SWEEP_CELLS)]
    for k in SWEEP_KS:
        med = {}
        for kind in ("static", "la"):
            sel = [r for r in rows if float(r["k"]) == k and r["controller"] == kind]
            med[kind] = {f: statistics.median(float(r[f]) for r in sel) if sel else float("nan")
                         for f in ("Ploss", "Pr", "Pa")}
        la, st = med["la"], med["static"]
        checks.append(Check(f"la dominates static at k={k}",
                            la["Ploss"] < st["Ploss"] and la["Pa"] < st["Pa"]
                            and la["Pr"] > st["Pr"]))
    return checks


def _sweep_build(seed: int) -> SweepSpec:
    first = seed * SWEEP_SEEDS_PER_K
    base = _validated(SimConfig(
        master_seed=first, total_requests=SWEEP_ARRIVALS, window_size=500,
        traffic=TrafficModel(lambda1=10.0, k=1.0, mu=100.0)))
    return SweepSpec(base_config=base, k_values=SWEEP_KS,
                     seeds=tuple(range(first, first + SWEEP_SEEDS_PER_K)),
                     controllers=("static", "la"))


def _sweep_run(spec: SweepSpec, out: Path) -> str:
    return run_sweep(spec, out_path=str(out / "sweep.csv"), workers=usable_cores())


def sweep_events(csv_text: str) -> int:
    rows = csv.DictReader(io.StringIO(csv_text))
    return round(sum(SWEEP_ARRIVALS * (2.0 - float(r["Ploss"])) for r in rows))


def _sweep_inspect(spec: SweepSpec, text: str, out: Path) -> Call:
    return Call(sweep_events(text), (out / "sweep.csv",))


def _sweep_check(spec: SweepSpec, files) -> list[Check]:
    return check_sweep(files[0].read_text(encoding="utf-8"))


# -- traced-la ---------------------------------------------------------------

TRACED_ARRIVALS = 200_000
TRACED_WINDOW = 500


def check_event_trace(trace_text: str, arrivals: int) -> list[Check]:
    """Same-time ordering (the program's own audit), time order, arrival count."""
    times_ok = True
    arrival_lines = 0
    prev = float("-inf")
    for line in trace_text.splitlines():
        t_str, kind = line.split("\t", 2)[:2]
        t = float(t_str)
        if t < prev:
            times_ok = False
        prev = t
        arrival_lines += kind in ("admit", "block")
    return [Check("event trace passes trace_ordering_ok", trace_ordering_ok(trace_text)),
            Check("event trace times non-decreasing", times_ok),
            Check("admit + block lines equal arrivals", arrival_lines == arrivals)]


def _traced_build(seed: int) -> SimConfig:
    return _validated(SimConfig(
        master_seed=seed, controller_kind="la",
        traffic=TrafficModel(lambda1=10.0, k=2.0, mu=100.0),
        total_requests=TRACED_ARRIVALS, window_size=TRACED_WINDOW))


def _traced_files(out: Path) -> tuple[Path, ...]:
    return (out / "windows.csv", out / "la_trace.csv", out / "events.tsv")


def _traced_run(config: SimConfig, out: Path):
    windows, la_trace, events = _traced_files(out)
    return run_single(config, out_path=str(windows), la_trace_path=str(la_trace),
                      event_trace_path=str(events), quiet=True)


def _traced_inspect(config: SimConfig, raw, out: Path) -> Call:
    report, _ = raw
    return Call(_run_events(report), _traced_files(out))


def _traced_check(config: SimConfig, files) -> list[Check]:
    n_windows = config.total_requests // config.window_size
    return [Check(f"{n_windows} window rows", len(_csv_rows(files[0])) == n_windows),
            *check_event_trace(files[2].read_text(encoding="utf-8"),
                               config.total_requests)]


WORKLOADS = {w.name: w for w in (
    Workload("erlang-1m", False, _erlang_build, _erlang_run, _erlang_inspect,
             _erlang_check),
    Workload("paper-sweep", True, _sweep_build, _sweep_run, _sweep_inspect,
             _sweep_check),
    Workload("traced-la", False, _traced_build, _traced_run, _traced_inspect,
             _traced_check),
)}
