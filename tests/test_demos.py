"""Smoke test: each demo runs in-process and prints its report."""

import runpy
from dataclasses import replace
from pathlib import Path

import pytest

from synsim import oracle

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo, lines", [
    ("01_oracle_checks.py",
     [f"=== {case.name} ===" for case in oracle.ORACLE_CASES] + ["  simulated Ploss="]),
    ("02_static_vs_adaptive.py",
     ["--- static ---", "--- la ---", "  blocked fraction   Ploss = ",
      "  mean hold time     h = "]),
    ("03_attack_sweep.py",
     ["running 40 simulations ...", "   k controller    Ploss", " 2.0         la "]),
])
def test_demo_prints_its_report(demo, lines, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "ORACLE_CASES", [
        replace(case, config=replace(case.config, total_requests=1000))
        for case in oracle.ORACLE_CASES])
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out
    for line in lines:
        assert line in out
