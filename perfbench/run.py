"""synsim host-time benchmark: one workload per invocation.

    python3 perfbench/run.py --workload erlang-1m --seed 0 --seconds 35 --trace 0

With --trace 0 the workload is called with nothing wrapped, as often as fits
in --seconds (at least MIN_CALLS times), and the end-to-end metrics are
printed; their times are scaled to a reference host speed (refloop.py).  With --trace 1 half the time goes to untraced calls and half to
calls with every layer wrapped (see layers.py); the per-layer metrics and
the tracing overhead are printed.  Every call's outputs are checked.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.

All outputs go to a temporary directory in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import refloop

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_CALLS = 3          # untraced calls per run: enough for a median and a repeat check
SETUP_PROBES = 7       # fresh processes timed for setup_s
REFERENCE_DIGESTS = BENCH_DIR / "reference_digests.json"

# run in each probe process: import synsim, then build and validate the inputs
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.WORKLOADS[{name!r}].build({seed})
print(time.perf_counter() - t0)
"""

clock = time.perf_counter


@dataclass(frozen=True)
class Sample:
    wall_s: float      # raw host seconds
    cpu_s: float
    speed: float       # refloop.speed around the call; reported = raw * speed
    events: int
    digest: str


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one reaped
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(wl, inputs, out_root: Path, budget_s: float, min_calls: int,
            call=None) -> tuple[list[Sample], tuple[Path, ...]]:
    """Call the workload while the next call fits in budget_s (at least min_calls).

    Only the program call is timed; the reference loop (refloop.py) runs
    between calls.  The first call's output files are kept for the checks;
    the others are deleted once digested.
    """
    from workloads import digest, usable_cores

    call = call or wl.run
    samples: list[Sample] = []
    kept: tuple[Path, ...] = ()
    with refloop.HostSpeed(usable_cores() if wl.uses_pool else 1) as host:
        start = clock()
        loop_before = host.loop_seconds()
        while len(samples) < min_calls or clock() - start + samples[-1].wall_s <= budget_s:
            out = out_root / f"call{len(samples)}"
            out.mkdir(parents=True)
            cpu0 = _cpu_s()
            t0 = clock()
            raw = call(inputs, out)
            wall = clock() - t0
            cpu = _cpu_s() - cpu0
            loop_after = host.loop_seconds()
            speed = refloop.speed(loop_before, loop_after)
            loop_before = loop_after
            result = wl.inspect(inputs, raw, out)
            del raw
            samples.append(Sample(wall, cpu, speed, result.events, digest(result.outputs)))
            if kept:
                shutil.rmtree(out)
            else:
                kept = result.outputs
    return samples, kept


def setup_s(name: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes of import synsim + build/validate the inputs.

    Returns (raw seconds, seconds at the reference speed).
    """
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    raw, ref = [], []
    loop_before = refloop.loop_seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120, cwd=ROOT)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        loop_after = refloop.loop_seconds()
        ref.append(raw[-1] * refloop.speed(loop_before, loop_after))
        loop_before = loop_after
    return statistics.median(raw), statistics.median(ref)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: do not pick up an enclosing repo
    try:
        proc = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, check=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def manifest(name: str, seed: int, digest: str) -> dict:
    sha = _git("rev-parse", "HEAD")
    dirty = None if sha is None else bool(_git("status", "--porcelain",
                                              "--untracked-files=no"))
    try:
        recorded = json.loads(REFERENCE_DIGESTS.read_text())[name].get(str(seed))
    except (OSError, KeyError, ValueError):
        recorded = None
    # a digest that moved is a changed sample path, not a failure
    sample_path = ("unrecorded" if recorded is None
                   else "unchanged" if recorded == digest else "changed")
    return {"workload": name, "seed": seed, "git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "usable_cores": len(os.sched_getaffinity(0)),
            "start_method": multiprocessing.get_start_method(),
            "outputs_sha256": digest, "sample_path": sample_path}


def run(args, tmp: Path) -> tuple[dict, list]:
    """Measure one workload; returns ({metric: (value, unit)}, checks)."""
    import layers
    import workloads
    from workloads import Check

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    checks: list = []

    if not args.trace:
        samples, kept = measure(wl, inputs, tmp / "untraced", args.seconds, MIN_CALLS)
        rss = _peak_rss_mb()   # before the checks below read whole files
        all_samples = samples
    else:
        untraced, kept = measure(wl, inputs, tmp / "untraced", args.seconds / 2, 1)
        tracer = layers.Tracer().install()
        try:
            call = None if wl.uses_pool else (
                lambda inputs, out: tracer.top_span(wl.run, inputs, out))
            traced, _ = measure(wl, inputs, tmp / "traced", args.seconds / 2, 1, call)
        finally:
            removed = tracer.remove()
        checks.append(Check("every wrapper removed after the traced calls", removed))
        checks.append(Check("layer self times add up to the traced spans",
                            layers.self_times_add_up(tracer.rec)))
        all_samples = untraced + traced

    first = all_samples[0].digest
    checks.extend(Check(f"call {i} outputs byte-identical to call 0", s.digest == first)
                  for i, s in enumerate(all_samples[1:], 1))
    checks.extend(wl.check(inputs, kept))

    if args.trace:
        metrics = layers.report(tracer.rec, len(traced), [s.wall_s for s in traced],
                                statistics.median(s.wall_s for s in untraced),
                                workloads.usable_cores(), wl.uses_pool)
    else:
        setup_raw, setup_ref = setup_s(args.workload, args.seed)
        metrics = {
            "wall_s": (statistics.median(s.wall_s * s.speed for s in samples), "s"),
            "events_per_s": (statistics.median(s.events / (s.wall_s * s.speed)
                                               for s in samples), "1/s"),
            "cpu_s": (statistics.median(s.cpu_s * s.speed for s in samples), "s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_ref, "s"),
        }
        print("raw host seconds per call: "
              + " ".join(f"{s.wall_s:.3f}" for s in samples)
              + f"; median {statistics.median(s.wall_s for s in samples):.4f}"
              + f"; setup {setup_raw:.4f}")
        print("host speed per call (reference = 1): "
              + " ".join(f"{s.speed:.3f}" for s in samples))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={len(all_samples)}")
    print("manifest " + json.dumps(manifest(args.workload, args.seed, first)))
    return metrics, checks


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("erlang-1m", "paper-sweep", "traced-la"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "synsim" / "__init__.py").is_file():
        print(f"perfbench: no synsim package under {SRC}", file=sys.stderr)
        return 2
    # write no bytecode into the checkout, here or in any child process
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(SRC)]
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        metrics, checks = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"FAILED check: {c.name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<28} {len(failed) / len(checks):>16.6g} frac "
          f"({len(failed)} of {len(checks)} checks)")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": {n: {"value": v, "unit": u}
                                  for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
