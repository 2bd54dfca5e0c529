import csv
import io
import json
from dataclasses import replace

import pytest

from synsim import harness, oracle
from synsim.domain import DefenseParams, SimConfig, TrafficModel
from synsim.harness import (DEFAULT_K_VALUES, SWEEP_COLUMNS, WINDOW_COLUMNS, SweepSpec, main,
                            run_single, run_sweep, run_validate)
from synsim.oracle import ORACLE_CASES


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


def test_repeat_runs_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        run_single(cfg(controller_kind="la"), out_path=str(p), quiet=True)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_la_trace_emitted_for_la_controller(tmp_path):
    trace = tmp_path / "trace.csv"
    run_single(cfg(controller_kind="la"), la_trace_path=str(trace), quiet=True)
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert {r["automaton"] for r in rows} == {"h", "m"}
    # round 0 plus one entry per window boundary
    assert max(int(r["round"]) for r in rows) == 4


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


def test_sweep_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), k_values=())
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), seeds=())
    with pytest.raises(ValueError):
        SweepSpec(base_config=cfg(), controllers=("bogus",))


def test_validate_fast_groups_pass():
    checks, ok = run_validate("erlang,ordering,determinism")
    assert ok
    assert len(checks) == 6
    assert all(c.seconds >= 0.0 for c in checks)


def test_validate_erlang_only_filter():
    checks, ok = run_validate("erlang")
    assert ok
    assert all("erlang" in c.name for c in checks)


def test_validate_sim_runs_every_oracle_case(monkeypatch):
    short = [replace(case, config=replace(case.config, total_requests=1000))
             for case in ORACLE_CASES]
    monkeypatch.setattr(oracle, "ORACLE_CASES", short)
    checks, _ = run_validate("sim")
    assert [c.name for c in checks] == [f"sim {case.name}" for case in short]


def test_validate_unknown_case_rejected():
    for cases in ("bogus", "ctmc"):
        with pytest.raises(ValueError, match="unknown validation cases"):
            run_validate(cases)


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
               "--k-min", "0", "--k-max", "1", "--k-step", "0.5",
               "--seeds", "2", "--controllers", "static", "--workers", "1"])
    assert rc == 0
    assert len(list(csv.DictReader(out.read_text().splitlines()))) == 6


def test_cli_sweep_takes_no_trace_flags(tmp_path, capsys):
    for flag in ("--event-trace", "--la-trace"):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--seed", "1", flag, str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags", [["--k-step", "0"], ["--k-step", "-0.5"],
                                   ["--k-step", "nan"], ["--k-min", "1", "--k-max", "0.5"]])
def test_cli_sweep_rejects_a_bad_k_grid(flags, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--seed", "1", *flags])
    assert exit_info.value.code == 2
    assert "--k-step must be positive" in capsys.readouterr().err


def test_cli_sweep_defaults_are_the_sweep_spec_defaults(monkeypatch):
    specs = []
    monkeypatch.setattr(harness, "run_sweep", lambda spec, **_: specs.append(spec) or "")
    assert main(["sweep", "--seed", "3"]) == 0
    assert specs[0].k_values == DEFAULT_K_VALUES == SweepSpec.k_values
    assert specs[0].controllers == SweepSpec.controllers
    assert specs[0].seeds == tuple(3 + i for i in range(len(SweepSpec.seeds)))


def test_cli_validate_exit_status(capsys):
    rc = main(["validate", "--cases", "erlang"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert out.count(" s]\n") == 4  # one wall time per check


def test_cli_run_requires_config_or_seed():
    with pytest.raises(SystemExit):
        main(["run"])
