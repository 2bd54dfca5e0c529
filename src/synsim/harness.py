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
from .domain import SimConfig, TrafficModel, load_config, validate_config
from .engine import run_simulation

WINDOW_COLUMNS = ("window_index", "k", "controller", "h", "m",
                  "arrivals_regular", "arrivals_attack", "blocked_regular",
                  "blocked_attack", "completed", "legit_expired",
                  "Ploss", "Pr", "Pa", "J")
SWEEP_COLUMNS = ("k", "seed", "controller", "Ploss", "Pr", "Pa", "J",
                 "mean_h", "mean_m", "legit_expired_fraction")

DEFAULT_K_VALUES = tuple(0.25 * i for i in range(9))  # 0 .. 2


def _fmt(value) -> str:
    # full round-trippable precision for floats, plain text otherwise
    return repr(value) if isinstance(value, float) else str(value)


def window_csv(config: SimConfig, report) -> str:
    """Per-window CSV for one run (exact column order per the interface)."""
    params = dict(report.param_trajectory)
    buf = io.StringIO()
    buf.write(",".join(WINDOW_COLUMNS) + "\n")
    for idx, w in enumerate(report.windows):
        p = params[idx]
        row = (idx, config.traffic.k, config.controller_kind, p.h, p.m,
               w.arrivals_regular, w.arrivals_attack, w.blocked_regular,
               w.blocked_attack, w.completed, w.legit_expired,
               w.Ploss, w.Pr, w.Pa, w.J)
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def la_trace_csv(controller: LaController) -> str:
    """Long-format probability-vector trace for both automata."""
    buf = io.StringIO()
    buf.write("round,automaton,action_index,action_value,probability\n")
    for rnd, ph, pm in controller.trace:
        for i, prob in enumerate(ph):
            buf.write(f"{rnd},h,{i},{_fmt(controller.h_automaton.actions[i])},"
                      f"{prob!r}\n")
        for i, prob in enumerate(pm):
            buf.write(f"{rnd},m,{i},{_fmt(controller.m_automaton.actions[i])},"
                      f"{prob!r}\n")
    return buf.getvalue()


def run_single(config: SimConfig, seed: int | None = None,
               out_path: str | None = None, la_trace_path: str | None = None,
               event_trace_path: str | None = None, quiet: bool = False):
    """Run one simulation; write the window CSV and optional traces."""
    controller = make_controller(config)
    if la_trace_path and not isinstance(controller, LaController):
        raise ValueError("--la-trace requires the la controller")
    trace_file = open(event_trace_path, "w") if event_trace_path else None
    try:
        report = run_simulation(config, controller=controller, seed=seed,
                                event_trace=trace_file)
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
        if not self.k_values or any(k < 0 for k in self.k_values):
            raise ValueError("k_values must be non-empty and non-negative")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not self.controllers or any(c not in ("static", "la")
                                       for c in self.controllers):
            raise ValueError("controllers must be a subset of {static, la}")


def _cell_config(spec: SweepSpec, k: float, seed: int, kind: str) -> SimConfig:
    base = spec.base_config
    return replace(base, traffic=replace(base.traffic, k=k),
                   controller_kind=kind, master_seed=seed)


def _run_cell(args):
    spec, k, seed, kind = args
    config = _cell_config(spec, k, seed, kind)
    report = run_simulation(config)
    traj = [p for _, p in report.param_trajectory]
    mean_h = sum(p.h for p in traj) / len(traj)
    mean_m = sum(p.m for p in traj) / len(traj)
    c = report.cumulative
    return (k, seed, kind, c.Ploss, c.Pr, c.Pa, c.J, mean_h, mean_m,
            report.legit_expired_fraction)


def run_sweep(spec: SweepSpec, out_path: str | None = None,
              workers: int | None = None) -> str:
    """One row per (k, seed, controller), sorted, as CSV text."""
    cells = [(spec, k, seed, kind) for k in spec.k_values
             for seed in spec.seeds for kind in spec.controllers]
    if workers is None:
        workers = min(len(cells), os.cpu_count() or 1)
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, cells, chunksize=1))
    else:
        rows = [_run_cell(c) for c in cells]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    buf = io.StringIO()
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    text = buf.getvalue()
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


def _sim_checks():
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


def _ordering_check():
    cfg = SimConfig(master_seed=7, total_requests=5000, window_size=500,
                    controller_kind="la",
                    traffic=TrafficModel(lambda1=10.0, k=1.0, mu=100.0))
    buf = io.StringIO()
    run_simulation(cfg, event_trace=buf)
    yield Check("event ordering (departures before arrivals)",
                trace_ordering_ok(buf.getvalue()), "trace scan", "ordered")


def _determinism_check():
    cfg = SimConfig(master_seed=11, total_requests=4000, window_size=500,
                    controller_kind="la")
    texts = []
    for _ in range(2):
        buf = io.StringIO()
        report = run_simulation(cfg, event_trace=buf)
        texts.append(window_csv(cfg, report) + buf.getvalue())
    yield Check("determinism (repeat run byte-identical)",
                texts[0] == texts[1], "2 runs compared", "identical")


def run_validate(cases: str = "all") -> tuple[list[Check], bool]:
    """Run the oracle-agreement suite; returns (checks, all_passed).

    Each sim case runs at its own length, which its tolerance is set for.
    """
    groups = {
        "erlang": _erlang_checks,
        "sim": _sim_checks,
        "ordering": _ordering_check,
        "determinism": _determinism_check,
    }
    wanted = set(groups) if cases in ("all", None) else set(cases.split(","))
    unknown = wanted - set(groups)
    if unknown:
        raise ValueError(f"unknown validation cases: {sorted(unknown)}")
    checks: list[Check] = []
    for name, group in groups.items():
        if name in wanted:
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
    p.add_argument("--out", help="output CSV path")


def _load(args) -> SimConfig:
    if args.config:
        try:
            config = load_config(args.config)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="synsim",
        description="Backlog simulator with adaptive (h, m) tuning")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    _add_shared_flags(p_run)
    p_run.add_argument("--la-trace", help="probability-vector trace CSV path")
    p_run.add_argument("--event-trace", help="event trace TSV path")

    p_sweep = sub.add_parser("sweep", help="k-sweep over seeds and controllers")
    _add_shared_flags(p_sweep)
    k_min, k_next, k_max = DEFAULT_K_VALUES[0], DEFAULT_K_VALUES[1], DEFAULT_K_VALUES[-1]
    p_sweep.add_argument("--k-min", type=float, default=k_min)
    p_sweep.add_argument("--k-max", type=float, default=k_max)
    p_sweep.add_argument("--k-step", type=float, default=k_next - k_min)
    p_sweep.add_argument("--seeds", type=int, default=len(SweepSpec.seeds),
                         help="number of replicate seeds")
    p_sweep.add_argument("--controllers", default=",".join(SweepSpec.controllers))
    p_sweep.add_argument("--workers", type=int, default=None)

    p_val = sub.add_parser("validate", help="oracle-agreement suite")
    p_val.add_argument("--cases", default="all",
                       help="comma list from erlang,sim,ordering,determinism; "
                            "each sim case runs at its own length")

    args = parser.parse_args(argv)

    if args.command == "run":
        run_single(_load(args), out_path=args.out, la_trace_path=args.la_trace,
                   event_trace_path=args.event_trace)
        return 0

    if args.command == "sweep":
        if not (args.k_step > 0 and args.k_max >= args.k_min):
            p_sweep.error("--k-step must be positive and --k-max at least --k-min")
        base = _load(args)
        n_steps = int(round((args.k_max - args.k_min) / args.k_step)) + 1
        spec = SweepSpec(base_config=base,
                         k_values=tuple(args.k_min + i * args.k_step for i in range(n_steps)),
                         seeds=tuple(base.master_seed + i for i in range(args.seeds)),
                         controllers=tuple(args.controllers.split(",")))
        text = run_sweep(spec, out_path=args.out, workers=args.workers)
        if not args.out:
            sys.stdout.write(text)
        return 0

    checks, ok = run_validate(args.cases)  # validate
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name}: observed {c.observed}, "
              f"expected {c.expected} [{c.seconds:.3f} s]")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
