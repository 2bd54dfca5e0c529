"""Tests of the benchmark's own checks and tracer (not a Tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import random
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

import layers
import refloop
import workloads
from synsim import (SimConfig, SweepSpec, TrafficModel, engine, erlang_b, harness,
                    run_simulation, run_single, run_sweep)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def failed(checks):
    return [c.name for c in checks if not c.ok]


def test_erlang_check_rejects_perturbed_ploss_and_missing_rows():
    good = erlang_b(10, 5.0)
    assert failed(workloads.check_erlang(good + 0.001, 1000)) == []
    assert len(failed(workloads.check_erlang(good + 0.004, 1000))) == 1
    assert len(failed(workloads.check_erlang(good, 999))) == 1


def _sweep_csv(la_wins: bool) -> str:
    lines = [",".join(harness.SWEEP_COLUMNS)]
    for k in workloads.SWEEP_KS:
        for seed in range(workloads.SWEEP_SEEDS_PER_K):
            for kind in ("static", "la"):
                good = (kind == "la") == la_wins
                ploss, pr, pa = (0.1, 0.6, 0.2) if good else (0.5, 0.1, 0.9)
                lines.append(f"{k},{seed},{kind},{ploss},{pr},{pa},1.0,1.0,1.0,0.0")
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_broken_dominance_and_missing_rows():
    assert failed(workloads.check_sweep(_sweep_csv(la_wins=True))) == []
    assert len(failed(workloads.check_sweep(_sweep_csv(la_wins=False)))) == len(workloads.SWEEP_KS)
    truncated = "".join(_sweep_csv(la_wins=True).splitlines(keepends=True)[:-1])
    assert failed(workloads.check_sweep(truncated)) == ["80 sweep rows"]


@pytest.fixture(scope="module")
def small_trace():
    config = SimConfig(master_seed=3, controller_kind="la", total_requests=5000,
                       window_size=500, traffic=TrafficModel(lambda1=10.0, k=2.0, mu=100.0))
    buf = io.StringIO()
    run_simulation(config, event_trace=buf)
    return buf.getvalue(), config.total_requests


def test_event_trace_check_passes_a_real_trace(small_trace):
    text, arrivals = small_trace
    assert failed(workloads.check_event_trace(text, arrivals)) == []


def test_event_trace_check_rejects_shuffled_and_truncated_traces(small_trace):
    text, arrivals = small_trace
    lines = text.splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    assert "event trace times non-decreasing" in failed(
        workloads.check_event_trace("".join(lines), arrivals))
    lines = text.splitlines(keepends=True)
    first_admit = next(i for i, line in enumerate(lines) if "\tadmit\t" in line)
    del lines[first_admit]
    assert failed(workloads.check_event_trace("".join(lines), arrivals)) == [
        "admit + block lines equal arrivals"]


def test_tracer_is_transparent_and_fully_removed(tmp_path):
    config = SimConfig(master_seed=5, controller_kind="la", total_requests=4000,
                       window_size=500)
    paths = {name: str(tmp_path / name) for name in ("w.csv", "la.csv", "ev.tsv")}

    def call():
        run_single(config, out_path=paths["w.csv"], la_trace_path=paths["la.csv"],
                   event_trace_path=paths["ev.tsv"], quiet=True)
        return workloads.digest([tmp_path / name for name in sorted(paths)])

    originals = (engine._ExpStream.draw, engine.BacklogState.pop_due,
                 harness.run_simulation, harness.ProcessPoolExecutor)
    plain = call()
    tracer = layers.Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            layers.Tracer().install()
        traced = tracer.top_span(call)
    finally:
        assert tracer.remove()
    assert traced == plain
    assert (engine._ExpStream.draw, engine.BacklogState.pop_due,
            harness.run_simulation, harness.ProcessPoolExecutor) == originals
    assert layers.self_times_add_up(tracer.rec)
    m = layers.report(tracer.rec, 1, tracer.rec.span_s, 1.0, 1, uses_pool=False)
    assert m["engine.admit.calls"][0] == 4000
    assert m["metrics.finalize.calls"][0] == 8
    assert m["emit.event_trace.lines"][0] == Path(paths["ev.tsv"]).read_text().count("\n")
    assert abs(sum(v for n, (v, _) in m.items() if n.endswith(".share")) - 1.0) < 1e-9


def test_traced_pool_collects_worker_counters():
    spec = SweepSpec(base_config=SimConfig(master_seed=0, total_requests=2000,
                                           window_size=500),
                     k_values=(1.0,), seeds=(0,), controllers=("static", "la"))
    plain = run_sweep(spec, workers=2)
    tracer = layers.Tracer().install()
    try:
        traced = run_sweep(spec, workers=2)
    finally:
        assert tracer.remove()
    assert traced == plain
    m = layers.report(tracer.rec, 1, [1.0], 1.0, 2, uses_pool=True)
    assert m["pool.cells"][0] == 2
    assert m["engine.admit.calls"][0] == 4000
    assert layers.self_times_add_up(tracer.rec)


def test_host_speed_helpers_run_the_loop_and_stop():
    with refloop.HostSpeed(2) as host:
        assert host.loop_seconds() > 0
        procs = [proc for proc, _ in host._helpers]
        assert len(procs) == 1 and procs[0].is_alive()
    assert not procs[0].is_alive()
    # spawned helpers would start multiprocessing's resource tracker, a
    # process that outlives the benchmark
    assert resource_tracker._resource_tracker._pid is None
    assert refloop.speed(refloop.CAL_REF_S, refloop.CAL_REF_S) == 1.0


def test_benchmark_json_names_match_what_the_runs_print():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = layers.report(layers.Recorder(), 1, [1.0], 1.0, 1, uses_pool=False)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "events_per_s", "cpu_s", "peak_rss_mb", "setup_s"]
