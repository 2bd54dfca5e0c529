"""Entry points: single runs, k-sweeps, oracle validation, CSV emission.

The CSVs are the deliverable; plotting is left to external tools.  All
outputs are pure functions of (config, seeds): sweep cells may execute in
parallel but rows are gathered and sorted deterministically.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import oracle
from .controller import LaController, make_controller
from .domain import SimConfig, load_config, validate_config
from .engine import run_simulation

WINDOW_COLUMNS = ("window_index", "k", "controller", "h", "m",
                  "arrivals_regular", "arrivals_attack", "blocked_regular",
                  "blocked_attack", "completed", "legit_expired",
                  "Ploss", "Pr", "Pa", "J")
LA_TRACE_COLUMNS = ("round", "automaton", "action_index", "action_value", "probability")
SWEEP_COLUMNS = ("k", "seed", "controller", "Ploss", "Pr", "Pa", "J",
                 "mean_h", "mean_m", "legit_expired_fraction")

DEFAULT_K_VALUES = tuple(0.25 * i for i in range(9))  # 0 .. 2


def _fmt(value) -> str:
    # full round-trippable precision for floats, plain text otherwise
    return repr(value) if isinstance(value, float) else str(value)


def _csv(columns, rows) -> str:
    """CSV text: the header, then one line per row."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def window_csv(config: SimConfig, report) -> str:
    """Per-window CSV for one run (exact column order per the interface)."""
    k, kind = config.traffic.k, config.controller_kind
    return _csv(WINDOW_COLUMNS, (
        (idx, k, kind, p.h, p.m, w.arrivals_regular, w.arrivals_attack,
         w.blocked_regular, w.blocked_attack, w.completed, w.legit_expired,
         w.Ploss, w.Pr, w.Pa, w.J)
        for idx, (w, p) in enumerate(zip(report.windows, report.param_trajectory))))


def la_trace_csv(controller: LaController) -> str:
    """Long-format probability-vector trace for both automata."""
    automata = (("h", controller.h_automaton), ("m", controller.m_automaton))
    return _csv(LA_TRACE_COLUMNS, (
        (rnd, name, i, automaton.actions[i], prob)
        for rnd, vectors in enumerate(controller.trace)
        for (name, automaton), p in zip(automata, vectors)
        for i, prob in enumerate(p.tolist())))


def run_single(config: SimConfig, out_path: str | None = None,
               la_trace_path: str | None = None,
               event_trace_path: str | None = None, quiet: bool = False):
    """Run one simulation; write the window CSV and optional traces."""
    controller = make_controller(config)
    if la_trace_path and not isinstance(controller, LaController):
        raise ValueError("--la-trace requires the la controller")
    trace_file = open(event_trace_path, "w") if event_trace_path else None
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
        print(f"cumulative Ploss={c.Ploss!r} Pr={c.Pr!r} Pa={c.Pa!r} J={c.J!r} "
              f"legit_expired_fraction={report.legit_expired_fraction!r}")
    return report, csv_text


@dataclass(frozen=True)
class SweepSpec:
    base_config: SimConfig
    k_values: tuple[float, ...] = DEFAULT_K_VALUES
    seeds: tuple[int, ...] = tuple(range(10))
    controllers: tuple[str, ...] = ("static", "la")

    def __post_init__(self):
        if not self.k_values or not all(math.isfinite(k) and k >= 0 for k in self.k_values):
            raise ValueError("k_values must be non-empty, finite and non-negative")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not self.controllers or any(c not in ("static", "la")
                                       for c in self.controllers):
            raise ValueError("controllers must be a subset of {static, la}")
        for name in ("k_values", "seeds", "controllers"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # a repeat would run its cells twice
                raise ValueError(f"{name} must not repeat a value")


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
    base = spec.base_config
    cells = [replace(base, traffic=replace(base.traffic, k=k),
                     controller_kind=kind, master_seed=seed)
             for k in spec.k_values for seed in spec.seeds for kind in spec.controllers]
    if workers is None:  # the CPUs this process may run on
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(len(cells), cpus)
    if workers > 1 and len(cells) > 1:
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


def _check_close(name: str, observed: float, expected: float,
                 tol: float) -> Check:
    return Check(name, abs(observed - expected) <= tol,
                 f"{observed:.6g}", f"{expected:.6g} ± {tol:g}")


def trace_ordering_ok(trace_text: str) -> bool:
    """Same-time scheduled departures must precede arrivals.

    A params line resets the ordering within its timestamp: evictions it
    causes legitimately fire after the window-boundary arrival.
    """
    rank = {"complete": 0, "expire": 0, "admit": 1, "block": 1}
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


def _erlang_checks():
    yield _check_close("erlang_b(0, 1) = 1", oracle.erlang_b(0, 1.0), 1.0, 0.0)
    yield _check_close("erlang_b(2, 1) = 0.2", oracle.erlang_b(2, 1.0), 0.2, 1e-12)
    # cross-check recursion against the direct factorial sum
    a, m = 5.0, 10
    direct = (a ** m / math.factorial(m)) / sum(a ** n / math.factorial(n)
                                                for n in range(m + 1))
    yield _check_close("erlang_b(10, 5) vs direct sum", oracle.erlang_b(m, a),
                       direct, 1e-12)
    yield _check_close("erlang_b(10, 5) = 0.01838", oracle.erlang_b(10, 5.0),
                       0.01838, 1e-5)


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
    """An LA run's event trace is ordered, and a repeat run is byte-identical."""
    config = SimConfig(master_seed=7, total_requests=5000)

    def traced_run():
        buf = io.StringIO()
        report = run_simulation(config, event_trace=buf)
        return buf.getvalue(), window_csv(config, report)

    first = traced_run()
    yield Check("event ordering (departures before arrivals)",
                trace_ordering_ok(first[0]), "trace scan", "ordered")
    yield Check("determinism (repeat run byte-identical)",
                traced_run() == first, "2 runs compared", "identical")


def run_validate() -> tuple[list[Check], bool]:
    """Run the oracle-agreement suite; returns (checks, all_passed).

    Each sim case runs at its own length, which its tolerance is set for.
    The acceptance gate runs this same suite once.
    """
    checks: list[Check] = []
    for group in (_erlang_checks, sim_checks, _trace_checks):
        start = time.perf_counter()
        for check in group():
            now = time.perf_counter()
            check.seconds, start = now - start, now
            checks.append(check)
    return checks, all(c.passed for c in checks)


# ---------------------------------------------------------------------------
# CLI


def _add_shared_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config path")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--out", type=_out_path, help="output CSV path")


def _load(args, parser: argparse.ArgumentParser) -> SimConfig:
    if args.config:
        try:
            config = load_config(args.config)
        except OSError as e:  # a missing or unreadable file
            parser.error(f"argument --config: {e.strerror}: {args.config!r}")
        except ValueError as e:  # bad JSON, or a key config_from_dict rejects
            raise SystemExit(f"invalid config: {e}") from None
    elif args.seed is not None:
        config = SimConfig(master_seed=args.seed)
    else:
        raise SystemExit("need --config or --seed")
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    violations = validate_config(config)
    if violations:
        raise SystemExit("invalid config: " + "; ".join(violations))
    return config


def _out_path(path: str) -> str:
    """An output path, checked before any simulation runs: a file in an existing directory."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"not a file in an existing directory: {path!r}")
    return path


def _workers(text: str) -> int:
    """--workers: a positive process count."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def _k_list(text: str) -> tuple[float, ...]:
    """--k's comma list of attack ratios, each finite and non-negative."""
    try:
        ks = tuple(map(float, text.split(",")))
        ok = all(math.isfinite(k) and k >= 0 for k in ks)
    except ValueError:  # an empty item or a non-number
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"must be a comma list of finite non-negative numbers, not {text!r}")
    return ks


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
    p_sweep.add_argument("--workers", type=_workers, default=None)

    sub.add_parser("validate", help="oracle-agreement suite, as the acceptance gate runs it")

    args = parser.parse_args(argv)

    if args.command == "run":
        config = _load(args, p_run)
        try:
            run_single(config, out_path=args.out, la_trace_path=args.la_trace,
                       event_trace_path=args.event_trace)
        except ValueError as e:  # a flag run_single rejects; the message names it
            p_run.error(str(e))
        return 0

    if args.command == "sweep":
        base = _load(args, p_sweep)
        try:
            spec = SweepSpec(base_config=base, k_values=args.k,
                             seeds=tuple(base.master_seed + i for i in range(args.seeds)),
                             controllers=tuple(args.controllers.split(",")))
        except ValueError as e:  # the message starts with the field's name
            field = str(e).split()[0]
            flag = "--k" if field == "k_values" else "--" + field
            p_sweep.error(f"argument {flag}: {e}")
        text = run_sweep(spec, out_path=args.out, workers=args.workers)
        if not args.out:
            sys.stdout.write(text)
        return 0

    checks, ok = run_validate()
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name}: observed {c.observed}, "
              f"expected {c.expected} [{c.seconds:.3f} s]")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
