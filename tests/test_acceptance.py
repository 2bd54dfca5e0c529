"""Acceptance gate: every criterion printed as one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import csv
import io
import statistics
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import conftest

from synsim.automata import Automaton
from synsim.domain import SimConfig, TrafficModel
from synsim.engine import RequestClass, run_simulation
from synsim.harness import SweepSpec, run_sweep, run_validate, window_csv
from synsim.oracle import ORACLE_CASES

SWEEP_KS = (0.5, 1.0, 1.5, 2.0)


def report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {status}: {name}" + (f" ({detail})" if detail else "")
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return ok


@pytest.fixture(scope="module")
def paper_sweep():
    spec = SweepSpec(
        base_config=SimConfig(master_seed=0, total_requests=50000,
                              window_size=500,
                              traffic=TrafficModel(lambda1=10, k=1, mu=100)),
        k_values=SWEEP_KS,
        seeds=tuple(range(10)),
        controllers=("static", "la"))
    start = time.perf_counter()
    text = run_sweep(spec)
    elapsed = time.perf_counter() - start
    return list(csv.DictReader(io.StringIO(text))), elapsed


@pytest.fixture(scope="module")
def validate_checks():
    """`synsim validate`'s suite, run once, every oracle case at its own length."""
    checks, _ = run_validate()
    return checks


def oracle_row(checks, row):
    """The check of the run of ORACLE_CASES[row]."""
    (check,) = (c for c in checks if c.name == f"sim {ORACLE_CASES[row].name}")
    return check


def medians(rows, k, controller):
    sel = [r for r in rows if float(r["k"]) == k and r["controller"] == controller]
    return {f: statistics.median(float(r[f]) for r in sel)
            for f in ("Ploss", "Pr", "Pa", "mean_h", "mean_m")}


def test_criterion_1_single_class_oracle_agreement(validate_checks):
    check = oracle_row(validate_checks, 0)
    ok = check.passed and check.seconds < 10.0
    assert report("1 single-class Erlang-B agreement", ok,
                  f"{check.observed} vs {check.expected}, {check.seconds:.1f}s")


def test_criterion_2_two_class_oracle_agreement(validate_checks):
    m1, m8 = (oracle_row(validate_checks, row) for row in (1, 2))
    assert report("2 two-class CTMC agreement", m1.passed and m8.passed,
                  f"m=1 {m1.observed}; m=8 {m8.observed}")


def test_every_validate_check_passes(validate_checks):
    # the oracle rows past criteria 1-2 and the audits of `synsim validate`
    assert [c.name for c in validate_checks if not c.passed] == []


def test_criterion_3_update_arithmetic():
    auto = Automaton((0, 1), a=0.1, b=0.0)
    auto.last_selected = 0
    auto.reward(0)
    ok = (abs(auto.p[0] - 0.55) <= 1e-12 and abs(auto.p[1] - 0.45) <= 1e-12)
    auto = Automaton((0, 1), a=0.1, b=0.1)
    auto.last_selected = 0
    auto.penalty(0)
    ok = ok and (abs(auto.p[0] - 0.45) <= 1e-12 and abs(auto.p[1] - 0.55) <= 1e-12)
    assert report("3 reward/penalty arithmetic exact", ok)


def test_criterion_4_simplex_fuzz():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(100_000):
        r = int(rng.integers(2, 17))
        auto = Automaton(tuple(range(r)), a=float(rng.uniform(1e-6, 1 - 1e-9)),
                         b=float(rng.uniform(0.0, 1 - 1e-9)))
        for _ in range(int(rng.integers(1, 6))):
            i = int(rng.integers(r))
            auto.last_selected = i
            if rng.random() < 0.5:
                auto.reward(i)
            else:
                auto.penalty(i)
            p = auto.p
            if abs(p.sum() - 1.0) > 1e-9 or p.min() < 0.0 or p.max() > 1.0:
                violations += 1
    assert report("4 simplex preserved over 1e5 random sequences",
                  violations == 0, f"{violations} violations")


def test_criterion_5_reward_inaction_convergence():
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        auto = Automaton((0, 1), a=0.1, b=0.0)
        for _ in range(500):
            i = auto.select(rng)
            if i == 0:
                auto.reward(i)
            else:
                auto.penalty(i)
            if auto.p[0] > 0.99:
                hits += 1
                break
    assert report("5 L_R-I convergence to rewarded action", hits >= 95,
                  f"{hits}/100 seeds")


def test_criterion_6_adaptive_dominates_static(paper_sweep):
    rows, elapsed = paper_sweep
    ok = elapsed < 60.0
    details = [f"sweep {elapsed:.0f}s"]
    for k in SWEEP_KS:
        la, st = medians(rows, k, "la"), medians(rows, k, "static")
        k_ok = (la["Ploss"] < st["Ploss"] and la["Pa"] < st["Pa"]
                and la["Pr"] > st["Pr"])
        details.append(f"k={k}:{'ok' if k_ok else 'VIOLATED'}")
        ok = ok and k_ok
    assert report("6 adaptive dominates static baseline", ok, " ".join(details))


def test_criterion_7_parameter_trends(paper_sweep):
    rows, _ = paper_sweep
    med_h = [medians(rows, k, "la")["mean_h"] for k in SWEEP_KS]
    med_m = [medians(rows, k, "la")["mean_m"] for k in SWEEP_KS]
    rho_h = spearmanr(SWEEP_KS, med_h).statistic
    rho_m = spearmanr(SWEEP_KS, med_m).statistic
    ok = rho_h < 0.0 and rho_m > 0.0
    assert report("7 hold-time falls / capacity grows with attack ratio", ok,
                  f"rho_h {rho_h:+.2f} (want <0), rho_m {rho_m:+.2f} (want >0)")


def test_criterion_8_byte_identical_outputs(tmp_path):
    config = SimConfig(master_seed=105, controller_kind="la",
                       total_requests=10000, window_size=500)
    outputs = []
    for run in range(2):
        trace = io.StringIO()
        rep = run_simulation(config, event_trace=trace)
        outputs.append((window_csv(config, rep).encode(),
                        trace.getvalue().encode()))
    spec = SweepSpec(base_config=config, k_values=(0.5,), seeds=(1,),
                     controllers=("static", "la"))
    sweeps = [run_sweep(spec, workers=1).encode() for _ in range(2)]
    ok = outputs[0] == outputs[1] and sweeps[0] == sweeps[1]
    assert report("8 determinism: byte-identical CSVs and trace", ok)


def test_criterion_9_conservation_audit():
    ok = True
    for kind in ("static", "la"):
        for hold_mode in ("deterministic", "exponential"):
            config = SimConfig(master_seed=106, controller_kind=kind,
                               hold_mode=hold_mode, total_requests=20000,
                               window_size=500)
            t = run_simulation(config).totals
            for cls in RequestClass:
                ok = ok and (t.admitted[cls] == t.completed[cls]
                             + t.expired[cls] + t.residents_at_drain[cls])
                ok = ok and (t.admitted[cls] + t.blocked[cls] == t.arrivals[cls])
    assert report("9 per-class conservation exact", ok)
