import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from synsim import engine, harness, oracle
from synsim.controller import LaController
from synsim.domain import (DefenseParams, SimConfig, TrafficModel, config_from_dict,
                           validate_config)
from synsim.engine import replay_trace, run_simulation
from synsim.harness import (DEFAULT_K_VALUES, LA_TRACE_COLUMNS, SWEEP_COLUMNS, WINDOW_COLUMNS,
                            SweepSpec, la_trace_csv, main, run_single, run_sweep, run_validate,
                            window_csv)
from synsim.oracle import ORACLE_CASES

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def cfg(**kw):
    defaults = dict(master_seed=42, total_requests=2000, window_size=500,
                    controller_kind="static",
                    traffic=TrafficModel(lambda1=10, k=1, mu=100))
    defaults.update(kw)
    return SimConfig(**defaults)


def test_window_csv_has_one_row_per_window(tmp_path):
    out = tmp_path / "win.csv"
    report, _ = run_single(cfg(), out_path=str(out), quiet=True)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    # the interface's column order, stated here apart from WindowMetrics
    assert list(rows[0]) == list(WINDOW_COLUMNS) == [
        "window_index", "k", "controller", "h", "m", "arrivals_regular", "arrivals_attack",
        "blocked_regular", "blocked_attack", "completed", "legit_expired",
        "Ploss", "Pr", "Pa", "J"]
    assert rows[0]["controller"] == "static"
    assert float(rows[0]["h"]) == 75.0
    for row, window in zip(rows, report.windows, strict=True):
        for name in WINDOW_COLUMNS[5:]:  # each column named after a WindowMetrics field
            assert row[name] == str(getattr(window, name))


def _written(config: SimConfig, k) -> tuple[str, str, str, str]:
    """What each writer prints for config: a static run's window CSV and event
    trace, an LA run's LA trace, and the sweep CSV of a one-cell grid of k."""
    static, trace, la = replace(config, controller_kind="static"), io.StringIO(), LaController()
    window = window_csv(static, run_simulation(static, event_trace=trace))
    run_simulation(replace(config, controller_kind="la"), controller=la)
    spec = SweepSpec(base_config=config, k_values=(k,), seeds=(config.master_seed,))
    return window, trace.getvalue(), la_trace_csv(la), run_sweep(spec, workers=1)


@pytest.mark.parametrize("how", ["built", "replaced", "loaded"])
@pytest.mark.parametrize("h, k, m, seed", [
    (75, 1, 128, 3),
    (75.0, 1.0, 128, 3),
    (np.float64(75.0), np.float64(1.0), np.int64(128), np.int64(3)),
])
def test_equal_configs_write_equal_bytes(how, h, k, m, seed):
    # a number is stored as one type whatever it was given as, so it prints one way
    run = {"total_requests": 1000, "window_size": 500}
    traffic, params = {"lambda1": 10.0, "k": k, "mu": 100.0}, {"h": h, "m": m}
    if how == "loaded":
        config = config_from_dict({"master_seed": seed, "traffic": traffic,
                                   "initial_params": params, **run})
    else:
        given = dict(master_seed=seed, traffic=TrafficModel(**traffic),
                     initial_params=DefenseParams(**params))
        config = (SimConfig(**given, **run) if how == "built"
                  else replace(SimConfig(master_seed=0, **run), **given))
    t, p = config.traffic, config.initial_params
    numbers = (t.lambda1, t.k, t.mu, p.h, p.m, config.master_seed, config.total_requests,
               config.window_size)
    assert [type(x) for x in numbers] == [float] * 4 + [int] * 4
    written = _written(config, k)
    reference = SimConfig(master_seed=3, traffic=TrafficModel(10.0, 1.0, 100.0),
                          initial_params=DefenseParams(75.0, 128), **run)
    assert written == _written(reference, 1.0)
    assert not any("np." in text for text in written)


def test_paper_defaults_give_100_windows(tmp_path):
    out = tmp_path / "win.csv"
    run_single(cfg(total_requests=50000), out_path=str(out), quiet=True)
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 100


def test_single_window_run(tmp_path):
    out = tmp_path / "one.csv"
    run_single(cfg(total_requests=500), out_path=str(out), quiet=True)
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 1


def test_la_trace_emitted_for_la_controller(tmp_path):
    trace = tmp_path / "trace.csv"
    run_single(cfg(controller_kind="la"), la_trace_path=str(trace), quiet=True)
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert {r["automaton"] for r in rows} == {"h", "m"}
    # round 0 plus one entry per window boundary
    assert max(int(r["round"]) for r in rows) == 4


def test_la_trace_probabilities_are_floats_summing_to_one(tmp_path):
    trace = tmp_path / "trace.csv"
    run_single(cfg(controller_kind="la", traffic=TrafficModel(lambda1=10, k=2, mu=100)),
               la_trace_path=str(trace), quiet=True)
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert list(rows[0]) == list(LA_TRACE_COLUMNS)
    sums = {}
    for r in rows:
        key = (int(r["round"]), r["automaton"])
        sums[key] = sums.get(key, 0.0) + float(r["probability"])
    assert len(sums) == 2 * 5  # round 0 plus one per window, for h and m
    assert all(abs(total - 1.0) <= 1e-9 for total in sums.values())


def test_la_trace_rejected_for_static(tmp_path):
    # checked before the run, so no output is written
    paths = {name: tmp_path / name for name in ("w.csv", "la.csv", "ev.tsv")}
    with pytest.raises(ValueError, match="la controller"):
        run_single(cfg(), out_path=str(paths["w.csv"]), la_trace_path=str(paths["la.csv"]),
                   event_trace_path=str(paths["ev.tsv"]), quiet=True)
    assert not any(path.exists() for path in paths.values())


def test_two_outputs_to_one_file_are_rejected(tmp_path):
    # checked before the run, by real path: a symlink to the window CSV is that file
    (tmp_path / "link.csv").symlink_to(tmp_path / "w.csv")
    with pytest.raises(ValueError, match="^event_trace_path is the same file as out_path$"):
        run_single(cfg(), out_path=str(tmp_path / "w.csv"),
                   event_trace_path=str(tmp_path / "link.csv"), quiet=True)
    assert os.listdir(tmp_path) == ["link.csv"]


def test_sweep_no_attack_column_is_zero():
    spec = SweepSpec(base_config=cfg(), k_values=(0.0,),
                     seeds=(1, 2), controllers=("static", "la"))
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec, workers=1))))
    assert len(rows) == 4
    assert all(float(r["Pa"]) == 0.0 for r in rows)


def test_sweep_cardinality_and_ordering():
    spec = SweepSpec(base_config=cfg(), k_values=(1.0, 0.5),
                     seeds=(5, 3), controllers=("la", "static"))
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec, workers=1))))
    assert len(rows) == 8
    assert list(rows[0]) == list(SWEEP_COLUMNS)
    keys = [(float(r["k"]), int(r["seed"]), r["controller"]) for r in rows]
    assert keys == sorted(keys)


def test_sweep_static_rows_report_fixed_params():
    spec = SweepSpec(base_config=cfg(), k_values=(1.0,), seeds=(1,),
                     controllers=("static",))
    rows = list(csv.DictReader(io.StringIO(run_sweep(spec, workers=1))))
    assert float(rows[0]["mean_h"]) == 75.0
    assert float(rows[0]["mean_m"]) == 128.0


def test_sweep_row_matches_a_run_of_its_cell():
    base = cfg(traffic=TrafficModel(lambda1=10, k=1, mu=100))
    spec = SweepSpec(base_config=base, k_values=(2.0,), seeds=(4,), controllers=("la",))
    [row] = csv.DictReader(io.StringIO(run_sweep(spec, workers=1)))
    config = replace(base, traffic=replace(base.traffic, k=2.0), controller_kind="la",
                     master_seed=4)
    report = run_simulation(config)
    windows = list(csv.DictReader(io.StringIO(harness.window_csv(config, report))))
    assert (float(row["k"]), int(row["seed"]), row["controller"]) == (2.0, 4, "la")
    assert float(row["mean_h"]) == sum(float(w["h"]) for w in windows) / len(windows)
    assert float(row["mean_m"]) == sum(int(w["m"]) for w in windows) / len(windows)
    c = report.cumulative
    assert [float(row[f]) for f in ("Ploss", "Pr", "Pa", "J")] == [c.Ploss, c.Pr, c.Pa, c.J]


def test_sweep_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), k_values=())
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), seeds=())
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), controllers=("bogus",))
    for k in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^invalid config: k must be"):
            SweepSpec(base_config=cfg(), k_values=(0.5, k))
    # a repeat would run the same cells twice and write duplicate rows
    for name, values in (("k_values", (1.0, 0.5, 1.0)), ("seeds", (3, 3)),
                         ("controllers", ("static", "la", "static"))):
        with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
            SweepSpec(base_config=cfg(), **{name: values})


def test_sweep_spec_checks_its_cells_when_built():
    # a cell validate_config rejects cannot be built, so the spec raises before any cell
    # runs; a bad base config raises when it is built, before any seed is applied
    with pytest.raises(ValueError, match="^invalid config: window_size must be at least 1"):
        SweepSpec(base_config=SimConfig(master_seed=1, window_size=0), seeds=(-1,))
    with pytest.raises(ValueError, match="^invalid config: window_size must be at least 1"):
        SweepSpec(base_config=SimConfig(master_seed=1, window_size=0), seeds=(1,))
    with pytest.raises(ValueError, match="^invalid config: master_seed must be non-negative"):
        SweepSpec(base_config=cfg(), seeds=(0, -1))
    with pytest.raises(ValueError, match="^invalid config: k must keep the attack rate"):
        SweepSpec(base_config=cfg(), k_values=(0.5, 1e308))


def test_sweep_builds_its_cells_once(monkeypatch):
    # two replace calls per cell (its traffic, then the config), all made when the spec is built
    calls = []

    def counted(obj, **changes):
        calls.append(obj)
        return replace(obj, **changes)

    monkeypatch.setattr(harness, "replace", counted)
    spec = SweepSpec(base_config=cfg(), k_values=(0.5, 1.0), seeds=(1,), controllers=("static",))
    assert len(calls) == 4
    assert len(run_sweep(spec, workers=1).splitlines()) == 1 + 2
    assert len(calls) == 4


@pytest.mark.parametrize("workers", [0, -5, 1.5, "2", True])
def test_sweep_rejects_a_bad_worker_count(workers, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a cell or pool started")

    monkeypatch.setattr(harness, "_run_cell", no_run)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_run)
    spec = SweepSpec(base_config=cfg(), k_values=(0.5,), seeds=(1,))
    rule = "be at least 1" if type(workers) is int else "be an integer"
    message = f"workers must {rule}, not {workers!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(spec, workers=workers)


def test_sweep_takes_a_numpy_worker_count():
    spec = SweepSpec(base_config=cfg(), k_values=(0.5,), seeds=(1,))
    assert run_sweep(spec, workers=np.int64(1)) == run_sweep(spec, workers=1)


def test_an_explicit_worker_count_is_capped_at_the_cells(monkeypatch):
    # a pool may start all its workers at once: two cells never start more than two
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    spec = SweepSpec(base_config=cfg(), k_values=(0.5,), seeds=(1,),
                     controllers=("static", "la"))
    assert len(list(csv.DictReader(io.StringIO(run_sweep(spec, workers=64))))) == 2
    assert started == [2]


def test_default_workers_follow_the_cpu_affinity(monkeypatch):
    # one usable CPU: a default two-cell sweep runs in this process
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
    spec = SweepSpec(base_config=cfg(), k_values=(0.5,), seeds=(1,),
                     controllers=("static", "la"))
    assert len(list(csv.DictReader(io.StringIO(run_sweep(spec))))) == 2


def test_validate_sim_runs_every_oracle_case(monkeypatch):
    short = [replace(case, config=replace(case.config, total_requests=1000))
             for case in ORACLE_CASES]
    monkeypatch.setattr(oracle, "ORACLE_CASES", short)
    checks = run_validate()
    assert [c.name for c in checks if c.name.startswith("sim ")] == \
           [f"sim {case.name}" for case in short]


def test_cli_run_with_config(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "master_seed": 7, "total_requests": 1000, "window_size": 500,
        "controller_kind": "la"}), encoding="utf-8")
    out = tmp_path / "out.csv"
    rc = main(["run", "--config", str(config_path), "--out", str(out),
               "--event-trace", str(tmp_path / "events.tsv")])
    assert rc == 0
    assert out.exists() and (tmp_path / "events.tsv").exists()
    assert "cumulative" in capsys.readouterr().out


@pytest.mark.parametrize("doc, message", [
    ({"initial_params": {"h": None, "m": 64}}, "h must be a finite number"),
    ({"typo": 1}, "unknown config keys: \\['typo'\\]"),
])
def test_cli_run_names_a_bad_loaded_field(tmp_path, doc, message, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"master_seed": 7, **doc}), encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(config_path)])
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.match(f"synsim run: error: argument --config: {message}$", last)


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({
        "master_seed": 7, "total_requests": 1000, "window_size": 500}),
        encoding="utf-8")
    rc = main(["sweep", "--config", str(config_path), "--out", str(out),
               "--k", "0,0.1,0.2,0.3", "--seeds", "2", "--controllers", "static",
               "--workers", "1"])
    assert rc == 0
    # each k is written as given
    ks = [row["k"] for row in csv.DictReader(out.read_text().splitlines())]
    assert ks == [k for k in ("0.0", "0.1", "0.2", "0.3") for _ in range(2)]


def test_cli_sweep_takes_no_trace_flags(tmp_path, capsys):
    for flag in ("--event-trace", "--la-trace"):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--seed", "1", flag, str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--seed", "1", "--controllers", "bogus"],
     "argument --controllers: controller_kind"),
    (["sweep", "--seed", "1", "--controllers", "static,static"],
     "argument --controllers: controllers must not repeat"),
    (["sweep", "--seed", "1", "--seeds", "0"], "argument --seeds: seeds must be non-empty"),
    (["sweep", "--seed", "1", "--k", "1,1"], "argument --k: k_values must not repeat"),
    (["run", "--seed", "1", "--out", "missing/x.csv"],
     "argument --out: not a file in an existing directory: 'missing/x.csv'"),
    (["run", "--config", "static.json", "--la-trace", "x.csv"],
     "argument --la-trace: la_trace_path requires the la controller"),
    (["run", "--seed", "1", "--la-trace", "missing/x.csv"], "argument --la-trace: not a file"),
    (["run", "--seed", "1", "--event-trace", "missing/x.tsv"],
     "argument --event-trace: not a file"),
    (["run", "--seed", "1", "--out", "."], "argument --out: not a file"),
    (["sweep", "--seed", "1", "--out", "missing/x.csv"], "argument --out: not a file"),
    (["run", "--config", "missing.json"],
     "argument --config: No such file or directory: 'missing.json'"),
    (["sweep", "--seed", "1", "--workers", "0"],
     "argument --workers: workers must be at least 1, not 0"),
    (["sweep", "--seed", "1", "--workers", "-2"], "argument --workers: workers must be at least"),
    # an empty path is no path: it would write nothing, or the CSV to stdout
    (["run", "--seed", "1", "--out", ""], "argument --out: not a file"),
    (["run", "--seed", "1", "--la-trace", ""], "argument --la-trace: not a file"),
    (["run", "--seed", "1", "--event-trace", ""], "argument --event-trace: not a file"),
    (["sweep", "--seed", "1", "--out", ""], "argument --out: not a file"),
    (["run", "--seed", "-1"], "argument --seed: master_seed must be non-negative"),
    (["run", "--config", ""], "argument --config: No such file or directory: ''"),
    (["run", "--config", "bad_h.json"], "argument --config: h must be a finite number"),
    (["sweep", "--config", "not_json.json"], "argument --config: Expecting value"),
    (["run"], "need --config or --seed"),
    # an error in a loaded file names --config, whichever field it names
    (["sweep", "--config", "neg_k.json"], "argument --config: k must be non-negative"),
    # two outputs to one file: the later flag is named
    (["run", "--seed", "1", "--out", "x.csv", "--event-trace", "x.csv"],
     "argument --event-trace: event_trace_path is the same file as out_path"),
    (["run", "--seed", "1", "--out", "x.csv", "--la-trace", "./x.csv"],
     "argument --la-trace: la_trace_path is the same file as out_path"),
    (["run", "--seed", "1", "--la-trace", "x.csv", "--event-trace", "x.csv"],
     "argument --event-trace: event_trace_path is the same file as la_trace_path"),
])
def test_cli_input_errors_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    # exit status 2 and one error line naming the flag, before any simulation runs
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "static.json").write_text(
        '{"master_seed": 1, "controller_kind": "static"}', encoding="utf-8")
    (tmp_path / "bad_h.json").write_text(
        '{"master_seed": 1, "initial_params": {"h": null, "m": 64}}', encoding="utf-8")
    (tmp_path / "not_json.json").write_text("master_seed = 1", encoding="utf-8")
    (tmp_path / "neg_k.json").write_text(
        '{"master_seed": 1, "traffic": {"k": -1}}', encoding="utf-8")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"synsim {argv[0]}: error: {message}")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [["--k", "0.5,,1"], ["--k", "0.5,-1"], ["--k", "nan"],
                                   ["--k", "abc"], ["--k", "inf"], ["--k", ""]])
def test_cli_sweep_rejects_a_bad_k_grid(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--seed", "1", *flags])
    assert exit_info.value.code == 2
    assert "argument --k:" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_sweep_run_time_errors_are_not_usage_errors(command, monkeypatch):
    # only an error that names a field or parameter with a flag is a usage error
    def fail(*args, **kwargs):
        raise ValueError("empty window")

    monkeypatch.setattr(harness, "run_simulation" if command == "run" else "run_sweep", fail)
    with pytest.raises(ValueError, match="^empty window$"):
        main([command, "--seed", "1"])


def test_cli_sweep_defaults_are_the_sweep_spec_defaults(monkeypatch):
    specs = []
    monkeypatch.setattr(harness, "run_sweep", lambda spec, **_: specs.append(spec) or "")
    assert main(["sweep", "--seed", "3"]) == 0
    assert specs[0].k_values == DEFAULT_K_VALUES == SweepSpec.k_values
    assert specs[0].controllers == SweepSpec.controllers
    assert specs[0].seeds == tuple(3 + i for i in range(len(SweepSpec.seeds)))


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # every synsim line of README's "Command line" block, optional flags included
    block = re.search(r"## Command line\n\n```\n(.*?)```", README, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("synsim ")]
    assert {line.split()[1] for line in lines} == {"run", "sweep", "validate"}
    entry = {"run": "run_single", "sweep": "run_sweep", "validate": "run_validate"}
    results = {"run_single": None, "run_sweep": "", "run_validate": []}
    calls = []
    for name, result in results.items():
        monkeypatch.setattr(harness, name, lambda *args, name=name, result=result, **kwargs:
                            calls.append(name) or result)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text('{"master_seed": 7}', encoding="utf-8")
    for line in lines:
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        calls.clear()
        assert main(argv) == 0 and calls == [entry[argv[0]]], line


def test_readme_config_example_is_valid():
    # README's config example loads and validates as it stands
    (block,) = re.findall(r"```json\n(.*?)```", README, re.S)
    assert validate_config(config_from_dict(json.loads(block))) == []


def test_readme_library_example_runs(capsys):
    # README's "Library" block runs as written and prints two numbers, Ploss and J
    block = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S).group(1)
    exec(block, {})
    ploss, j = map(float, capsys.readouterr().out.split())
    assert 0.0 <= ploss <= 1.0 and math.isfinite(j)


def test_cli_validate_exit_status(monkeypatch, capsys):
    # short oracle runs: every case passes within 1 and fails within 0
    for tol, status in ((1.0, 0), (0.0, 1)):
        monkeypatch.setattr(oracle, "ORACLE_CASES", [
            replace(case, tol=tol, config=replace(case.config, total_requests=1000))
            for case in ORACLE_CASES])
        rc = main(["validate"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(ORACLE_CASES) + 2  # sim and trace checks
        assert all(re.fullmatch(r"(PASS|FAIL)  .* \[\d+\.\d{3} s\]", line) for line in lines)
        assert rc == status == (0 if all(line.startswith("PASS") for line in lines) else 1)


def test_cli_validate_fails_a_trace_that_does_not_replay(monkeypatch, capsys):
    # short oracle runs that pass; each traced settle writes its first admit as a block
    monkeypatch.setattr(oracle, "ORACLE_CASES", [
        replace(case, tol=1.0, config=replace(case.config, total_requests=1000))
        for case in ORACLE_CASES])
    trace_lines = engine._trace_lines
    monkeypatch.setattr(engine, "_trace_lines",
                        lambda *args: trace_lines(*args).replace("\tadmit\t", "\tblock\t", 1))
    assert main(["validate"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if not line.startswith("PASS")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  event trace replays (occupancy, capacity, order): "
                                "observed event trace line ")


def test_python_m_synsim_runs_the_cli(tmp_path):
    # the installed entry point's module: a run writes the files the library
    # writes, and a usage error exits with status 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")))))

    def synsim(*argv):
        return subprocess.run([sys.executable, "-m", "synsim", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    result = synsim("run", "--seed", "1", "--out", "w.csv", "--la-trace", "la.csv",
                    "--event-trace", "ev.tsv")
    assert result.returncode == 0, result.stderr
    assert sorted(os.listdir(tmp_path)) == ["ev.tsv", "la.csv", "w.csv"]
    config, buf = SimConfig(master_seed=1), io.StringIO()
    report = run_simulation(config, event_trace=buf)
    trace = (tmp_path / "ev.tsv").read_text(encoding="utf-8")
    assert trace == buf.getvalue() and replay_trace(trace) == report.totals
    assert (tmp_path / "w.csv").read_text(encoding="utf-8") == window_csv(config, report)
    result = synsim("run", "--seed", "1", "--out", "x.csv", "--event-trace", "x.csv")
    assert result.returncode == 2
    assert "error: argument --event-trace: event_trace_path" in result.stderr
    assert not (tmp_path / "x.csv").exists()


def test_cli_run_requires_config_or_seed():
    with pytest.raises(SystemExit):
        main(["run"])
