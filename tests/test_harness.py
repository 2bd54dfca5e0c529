import csv
import io
import json
import math
import os
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from synsim import harness, oracle
from synsim.domain import (DefenseParams, SimConfig, TrafficModel, config_from_dict,
                           validate_config)
from synsim.engine import run_simulation
from synsim.harness import (DEFAULT_K_VALUES, LA_TRACE_COLUMNS, SWEEP_COLUMNS, WINDOW_COLUMNS,
                            SweepSpec, main, run_single, run_sweep, run_validate)
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
    run_single(cfg(), out_path=str(out), quiet=True)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert list(rows[0]) == list(WINDOW_COLUMNS)
    assert rows[0]["controller"] == "static"
    assert float(rows[0]["h"]) == 75.0


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
        with pytest.raises(ValueError, match="k_values"):
            SweepSpec(base_config=cfg(), k_values=(0.5, k))
    # a repeat would run the same cells twice and write duplicate rows
    for name, values in (("k_values", (1.0, 0.5, 1.0)), ("seeds", (3, 3)),
                         ("controllers", ("static", "la", "static"))):
        with pytest.raises(ValueError, match=f"^{name} must not repeat a value"):
            SweepSpec(base_config=cfg(), **{name: values})


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
    checks, _ = run_validate()
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
def test_cli_run_names_a_bad_loaded_field(tmp_path, doc, message):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"master_seed": 7, **doc}), encoding="utf-8")
    with pytest.raises(SystemExit, match=f"^invalid config: {message}"):
        main(["run", "--config", str(config_path)])


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
    (["sweep", "--seed", "1", "--controllers", "bogus"], "argument --controllers: controllers"),
    (["sweep", "--seed", "1", "--controllers", "static,static"],
     "argument --controllers: controllers must not repeat"),
    (["sweep", "--seed", "1", "--seeds", "0"], "argument --seeds: seeds must be non-empty"),
    (["sweep", "--seed", "1", "--k", "1,1"], "argument --k: k_values must not repeat"),
    (["run", "--seed", "1", "--out", "missing/x.csv"],
     "argument --out: not a file in an existing directory: 'missing/x.csv'"),
    (["run", "--config", "static.json", "--la-trace", "x.csv"],
     "--la-trace requires the la controller"),
    (["run", "--seed", "1", "--la-trace", "missing/x.csv"], "argument --la-trace: not a file"),
    (["run", "--seed", "1", "--event-trace", "missing/x.tsv"],
     "argument --event-trace: not a file"),
    (["run", "--seed", "1", "--out", "."], "argument --out: not a file"),
    (["sweep", "--seed", "1", "--out", "missing/x.csv"], "argument --out: not a file"),
    (["run", "--config", "missing.json"],
     "argument --config: No such file or directory: 'missing.json'"),
    (["sweep", "--seed", "1", "--workers", "0"],
     "argument --workers: must be a positive integer, not '0'"),
    (["sweep", "--seed", "1", "--workers", "-2"], "argument --workers: must be a positive"),
])
def test_cli_input_errors_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    # exit status 2 and one error line naming the flag, before any simulation runs
    def no_run(*args, **kwargs):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(harness, "run_simulation", no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "static.json").write_text(
        '{"master_seed": 1, "controller_kind": "static"}', encoding="utf-8")
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
    assert "argument --k: must be a comma list" in capsys.readouterr().err


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
    results = {"run_single": None, "run_sweep": "", "run_validate": ([], True)}
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


def test_cli_validate_exit_status(monkeypatch, capsys):
    # short oracle runs: every case passes within 1 and fails within 0
    for tol, status in ((1.0, 0), (0.0, 1)):
        monkeypatch.setattr(oracle, "ORACLE_CASES", [
            replace(case, tol=tol, config=replace(case.config, total_requests=1000))
            for case in ORACLE_CASES])
        rc = main(["validate"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4 + len(ORACLE_CASES) + 2  # erlang, sim and trace checks
        assert all(re.fullmatch(r"(PASS|FAIL)  .* \[\d+\.\d{3} s\]", line) for line in lines)
        assert rc == status == (0 if all(line.startswith("PASS") for line in lines) else 1)


def test_cli_run_requires_config_or_seed():
    with pytest.raises(SystemExit):
        main(["run"])
