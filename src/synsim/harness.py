"""Entry points: single runs, k-sweeps, oracle validation, CSV emission.

The CSVs are the deliverable; plotting is left to external tools.  All
outputs are pure functions of (config, seeds): sweep cells may execute in
parallel but rows are gathered and sorted deterministically.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from . import oracle
from .controller import LaController, make_controller
from .domain import SimConfig, _is_int, load_config
from .engine import KINDS, replay_trace, run_simulation
from .metrics import WindowMetrics

# a window's fields but its duration, the last
WINDOW_COLUMNS = ("window_index", "k", "controller", "h", "m", *WindowMetrics._fields[:-1])
LA_TRACE_COLUMNS = ("round", "automaton", "action_index", "action_value", "probability")
SWEEP_COLUMNS = ("k", "seed", "controller", "Ploss", "Pr", "Pa", "J",
                 "mean_h", "mean_m", "legit_expired_fraction")

DEFAULT_K_VALUES = tuple(0.25 * i for i in range(9))  # 0 .. 2


def _csv(columns, rows) -> str:
    """CSV text: the header, then one line per row; a float's str round-trips."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def window_csv(config: SimConfig, report) -> str:
    """Per-window CSV for one run (exact column order per the interface)."""
    k, kind = config.traffic.k, config.controller_kind
    return _csv(WINDOW_COLUMNS, (
        (idx, k, kind, p.h, p.m, *w[:-1])
        for idx, (w, p) in enumerate(zip(report.windows, report.param_trajectory))))


def la_trace_csv(controller: LaController) -> str:
    """Long-format probability-vector trace for both automata."""
    return _csv(LA_TRACE_COLUMNS, (
        (rnd, name, i, automaton.actions[i], prob)
        for rnd, vectors in enumerate(controller.trace)
        for name, automaton, p in zip(("h", "m"), controller.automata, vectors)
        for i, prob in enumerate(p)))


def run_single(config: SimConfig, out_path: str | None = None,
               la_trace_path: str | None = None,
               event_trace_path: str | None = None, quiet: bool = False):
    """Run one simulation; write the window CSV and optional traces."""
    named = {}  # each output's real path: the first parameter naming it
    for name, path in (("out_path", out_path), ("la_trace_path", la_trace_path),
                       ("event_trace_path", event_trace_path)):
        if path and (first := named.setdefault(os.path.realpath(path), name)) != name:
            raise ValueError(f"{name} is the same file as {first}")
    controller = make_controller(config)
    if la_trace_path and not isinstance(controller, LaController):
        raise ValueError("la_trace_path requires the la controller")
    trace_file = open(event_trace_path, "w", encoding="utf-8") if event_trace_path else None
    try:
        report = run_simulation(config, controller=controller, event_trace=trace_file)
    finally:
        if trace_file:
            trace_file.close()
    csv_text = window_csv(config, report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(csv_text)
    if la_trace_path:
        with open(la_trace_path, "w", encoding="utf-8") as f:
            f.write(la_trace_csv(controller))
    if not quiet:
        c = report.cumulative
        print(f"cumulative Ploss={c.Ploss} Pr={c.Pr} Pa={c.Pa} J={c.J} "
              f"legit_expired_fraction={report.legit_expired_fraction}")
    return report, csv_text


@dataclass(frozen=True)
class SweepSpec:
    """One cell per (k, seed, controller); building the spec builds, and so checks, each cell."""

    base_config: SimConfig
    k_values: tuple[float, ...] = DEFAULT_K_VALUES
    seeds: tuple[int, ...] = tuple(range(10))
    controllers: tuple[str, ...] = ("static", "la")
    cells: tuple[SimConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("k_values", "seeds", "controllers"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if len(set(values)) < len(values):  # a repeat would run its cells twice
                raise ValueError(f"{name} must not repeat a value")
        # built once, here: a cell validate_config rejects raises from replace
        base = self.base_config
        object.__setattr__(self, "cells", tuple(
            replace(base, traffic=replace(base.traffic, k=k), controller_kind=kind,
                    master_seed=seed)
            for k in self.k_values for seed in self.seeds for kind in self.controllers))


def _run_cell(config: SimConfig):
    report = run_simulation(config)
    traj = report.param_trajectory
    mean_h = sum(p.h for p in traj) / len(traj)
    mean_m = sum(p.m for p in traj) / len(traj)
    c = report.cumulative
    return (config.traffic.k, config.master_seed, config.controller_kind,
            c.Ploss, c.Pr, c.Pa, c.J, mean_h, mean_m, report.legit_expired_fraction)


def run_sweep(spec: SweepSpec, out_path: str | None = None,
              workers: int | None = None) -> str:
    """One row per (k, seed, controller), sorted, as CSV text."""
    cells = spec.cells
    if workers is None:  # the CPUs this process may run on
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    elif not _is_int(workers):
        raise ValueError(f"workers must be an integer, not {workers!r}")
    elif workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers!r}")
    workers = min(workers, len(cells))  # a pool may start all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells, chunksize=1))
    else:
        rows = [_run_cell(c) for c in cells]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    text = _csv(SWEEP_COLUMNS, rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# validation suite


@dataclass
class Check:
    name: str
    passed: bool
    observed: str
    expected: str
    seconds: float = 0.0  # wall time spent producing this check


def trace_ordering_ok(trace_text: str) -> bool:
    """Same-time departures must precede arrivals; a params line starts afresh,
    as the evictions it causes follow the window's last arrival.  Assumes every
    lifetime is positive: a zero lifetime follows its own admission, a correct
    trace that this rejects.  Kept only for perfbench's check_event_trace until
    that check moves onto engine.replay_trace, which supersedes this scan."""
    rank = dict(zip(KINDS, (1, 1, 0, 0)))  # arrivals 1, departures 0
    prev_t, prev_rank = None, -1
    for line in trace_text.splitlines():
        t_str, kind = line.split("\t")[:2]
        t = float(t_str)
        if t != prev_t:
            prev_rank = -1
        if kind == "params":
            prev_t, prev_rank = t, -1
            continue
        r = rank[kind]
        if r < prev_rank:
            return False
        prev_t, prev_rank = t, r
    return True


def sim_checks():
    """One check per oracle case: its run's Ploss, Pr and Pa against the closed form."""
    fields = ("Ploss", "Pr", "Pa")
    for case in oracle.ORACLE_CASES:
        got = run_simulation(case.config).cumulative
        want = oracle.steady_state(case.config)
        yield Check(f"sim {case.name}",
                    all(abs(getattr(got, f) - getattr(want, f)) <= case.tol
                        for f in fields),
                    " ".join(f"{f}={getattr(got, f):.6g}" for f in fields),
                    " ".join(f"{f}={getattr(want, f):.6g}" for f in fields)
                    + f" ± {case.tol:g}")


def _trace_checks():
    """An LA run's event trace replays to its totals, and a repeat run is byte-identical."""
    config = SimConfig(master_seed=7, total_requests=5000)

    def traced_run():
        buf = io.StringIO()
        report = run_simulation(config, event_trace=buf)
        return buf.getvalue(), window_csv(config, report), report.totals

    first = traced_run()
    try:
        observed = "the run's totals" if replay_trace(first[0]) == first[2] else "other totals"
    except ValueError as error:  # the first line that breaks a rule
        observed = str(error)
    yield Check("event trace replays (occupancy, capacity, order)",
                observed == "the run's totals", observed, "the run's totals")
    yield Check("determinism (repeat run byte-identical)",
                traced_run() == first, "2 runs compared", "identical")


def run_validate() -> list[Check]:
    """Run the oracle-agreement suite and return its checks.

    Each sim case runs at its own length, which its tolerance is set for.
    The acceptance gate runs this same suite once.
    """
    checks: list[Check] = []
    for group in (sim_checks, _trace_checks):
        start = time.perf_counter()
        for check in group():
            now = time.perf_counter()
            check.seconds, start = now - start, now
            checks.append(check)
    return checks


# ---------------------------------------------------------------------------
# CLI


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--out", type=_out_path, help="output CSV path")


def _reason(error: ValueError) -> str:
    """A config error's message without its prefix, so it starts with the field's name."""
    return str(error).removeprefix("invalid config: ")


def _load(args, parser: argparse.ArgumentParser) -> SimConfig:
    """The config --config and --seed give; any error in a loaded file names --config."""
    if args.config is None and args.seed is None:
        parser.error("need --config or --seed")
    if args.config is None:
        return SimConfig(master_seed=args.seed)
    try:
        config = load_config(args.config)
    except OSError as e:  # a missing or unreadable file
        parser.error(f"argument --config: {e.strerror}: {args.config!r}")
    except ValueError as e:  # bad JSON, or a key or value the config rejects
        parser.error(f"argument --config: {_reason(e)}")
    return config if args.seed is None else replace(config, master_seed=args.seed)


def _out_path(path: str) -> str:
    """An output path, checked before any simulation runs: a file in an existing directory."""
    if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"not a file in an existing directory: {path!r}")
    return path


def _k_list(text: str) -> tuple[float, ...]:
    """--k's comma list of attack ratios; SweepSpec checks each one."""
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:  # an empty item or a non-number
        raise argparse.ArgumentTypeError(
            f"must be a comma list of numbers, not {text!r}") from None


# the flag behind each field or parameter a library error can start with
# (validate_config's messages all read "<field> must <rule>")
_FLAGS = {"master_seed": "--seed", "la_trace_path": "--la-trace",
          "event_trace_path": "--event-trace", "k": "--k", "k_values": "--k",
          "controller_kind": "--controllers", "controllers": "--controllers",
          "seeds": "--seeds", "workers": "--workers"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synsim",
        description="Backlog simulator with adaptive (h, m) tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_shared_flags(p_run)
    p_run.add_argument("--la-trace", type=_out_path,
                       help="probability-vector trace CSV path")
    p_run.add_argument("--event-trace", type=_out_path, help="event trace TSV path")

    p_sweep = sub.add_parser("sweep", help="k-sweep over seeds and controllers")
    _add_shared_flags(p_sweep)
    p_sweep.add_argument("--k", type=_k_list, default=SweepSpec.k_values,
                         help="comma list of attack ratios")
    p_sweep.add_argument("--seeds", type=int, default=len(SweepSpec.seeds),
                         help="number of replicate seeds")
    p_sweep.add_argument("--controllers", default=",".join(SweepSpec.controllers))
    p_sweep.add_argument("--workers", type=int, default=None)

    sub.add_parser("validate", help="oracle-agreement suite, as the acceptance gate runs it")

    args = parser.parse_args(argv)

    if args.command == "validate":
        checks = run_validate()
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"{status}  {c.name}: observed {c.observed}, "
                  f"expected {c.expected} [{c.seconds:.3f} s]")
        return 0 if all(c.passed for c in checks) else 1

    command = p_run if args.command == "run" else p_sweep
    try:
        config = _load(args, command)
        if args.command == "run":
            run_single(config, out_path=args.out, la_trace_path=args.la_trace,
                       event_trace_path=args.event_trace)
            return 0
        spec = SweepSpec(base_config=config, k_values=args.k,
                         seeds=tuple(config.master_seed + i for i in range(args.seeds)),
                         controllers=tuple(args.controllers.split(",")))
        text = run_sweep(spec, out_path=args.out, workers=args.workers)
    except ValueError as e:  # an input the library rejects: the message starts with its field
        if (flag := _FLAGS.get(_reason(e).partition(" ")[0])) is None:
            raise  # a run-time error, not a bad flag
        command.error(f"argument {flag}: {_reason(e)}")
    if not args.out:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
