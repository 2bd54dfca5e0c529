import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import test_acceptance
from synsim.engine import run_simulation
from synsim.oracle import ORACLE_CASES, erlang_b, steady_state, two_class_loss

FIELDS = ("Ploss", "Pr", "Pa")


def test_zero_servers_block_everything():
    assert erlang_b(0, 1.0) == 1.0
    assert erlang_b(0, 100.0) == 1.0


def test_two_steps_by_hand():
    # B(1) = 1/2, B(2) = 0.5/2.5
    assert erlang_b(2, 1.0) == pytest.approx(0.2, abs=1e-15)


def test_against_direct_factorial_sum():
    for m, a in [(10, 5.0), (5, 2.0), (20, 15.0)]:
        direct = (a ** m / math.factorial(m)) / sum(
            a ** n / math.factorial(n) for n in range(m + 1))
        assert erlang_b(m, a) == pytest.approx(direct, abs=1e-12)
    assert erlang_b(10, 5.0) == pytest.approx(0.01838, abs=1e-5)


@pytest.mark.parametrize("a", [500.0, 1024.0, 1500.0, 3000.0])
def test_paper_capacity_against_log_space_sum(a):
    m = 1024
    logs = [n * math.log(a) - math.lgamma(n + 1) for n in range(m + 1)]
    top = max(logs)
    direct = math.exp(logs[-1] - top) / sum(math.exp(x - top) for x in logs)
    assert erlang_b(m, a) == pytest.approx(direct, rel=1e-10)


def test_monotone_in_m_and_load():
    for m in range(1, 30):
        assert erlang_b(m, 10.0) <= erlang_b(m - 1, 10.0)
    loads = [0.1 * i for i in range(1, 100)]
    blocks = [erlang_b(8, a) for a in loads]
    assert all(b1 <= b2 for b1, b2 in zip(blocks, blocks[1:]))


def test_invalid_inputs():
    with pytest.raises(ValueError):
        erlang_b(-1, 1.0)
    with pytest.raises(ValueError):
        erlang_b(3, -0.5)
    with pytest.raises(ValueError, match="m must"):
        two_class_loss(0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="arrival rates"):
        two_class_loss(4, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="departure rates"):
        two_class_loss(4, 1.0, 1.0, 1.0, 0.0)


def dense_ctmc(m, lambda1, lambda2, rate1, rate2):
    """(Ploss, Pr, Pa) of the exponential two-class loss chain, by dense solve."""
    states = [(i, j) for i in range(m + 1) for j in range(m + 1 - i)]
    index = {s: n for n, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    for (i, j), n in index.items():
        if i + j < m:
            q[n, index[i + 1, j]] = lambda1
            q[n, index[i, j + 1]] = lambda2
        if i:
            q[n, index[i - 1, j]] = i * rate1
        if j:
            q[n, index[i, j - 1]] = j * rate2
        q[n, n] = -q[n].sum()
    # pi Q = 0 with sum(pi) = 1: replace one balance equation by normalization
    a = q.T.copy()
    a[-1] = 1.0
    pi = np.linalg.solve(a, np.eye(len(states))[-1])
    return (sum(p for (i, j), p in zip(states, pi) if i + j == m),
            sum(p * i for (i, _), p in zip(states, pi)) / m,
            sum(p * j for (_, j), p in zip(states, pi)) / m)


@pytest.mark.parametrize("m", [1, 6, 8, 16])
@pytest.mark.parametrize("rates", [(3.0, 3.0, 2.0, 2.0), (10.0, 10.0, 102.0, 2.0),
                                   (7.0, 3.0, 2.0, 0.5)])
def test_closed_form_matches_dense_ctmc(m, rates):
    sol = two_class_loss(m, *rates)
    assert (sol.Ploss, sol.Pr, sol.Pa) == pytest.approx(dense_ctmc(m, *rates),
                                                        abs=1e-12)


def test_symmetric_m1_hand_solution():
    sol = two_class_loss(1, 1.0, 1.0, 1.0, 1.0)
    assert sol.Ploss == pytest.approx(2 / 3, abs=1e-12)
    assert sol.Pr == pytest.approx(1 / 3, abs=1e-12)
    assert sol.Pa == pytest.approx(1 / 3, abs=1e-12)


def test_single_class_reduces_to_erlang_b():
    for m, lam, rate in [(5, 3.0, 1.0), (12, 5.0, 1.0), (30, 20.0, 2.0)]:
        sol = two_class_loss(m, lam, 0.0, rate, 1.0)
        assert sol.Ploss == pytest.approx(erlang_b(m, lam / rate), abs=1e-9)
        assert sol.Pa == pytest.approx(0.0, abs=1e-12)


def test_exchangeable_classes_are_symmetric():
    sol = two_class_loss(9, 4.0, 4.0, 1.5, 1.5)
    assert sol.Pr == pytest.approx(sol.Pa, abs=1e-9)


def test_deterministic_hold_matches_closed_form():
    case = next(c for c in ORACLE_CASES if c.name == "deterministic h=2 m=16")
    config = replace(case.config, total_requests=300_000)
    got = run_simulation(config).cumulative
    want = steady_state(config)
    for f in FIELDS:
        assert abs(getattr(got, f) - getattr(want, f)) <= case.tol, f


CRITERIA = (test_acceptance.test_criterion_1_single_class_oracle_agreement,
            test_acceptance.test_criterion_2_two_class_oracle_agreement)


def run_criteria(monkeypatch, row, scale):
    """Run criteria 1-2 with the engine replaced by the closed form.

    The row-th run reports every field off by scale times that table row's
    tolerance.  Returns the configs the criteria ran and which passed.
    """
    configs = []

    def closed_form(config):
        shift = scale * ORACLE_CASES[row].tol if len(configs) == row else 0.0
        configs.append(config)
        want = steady_state(config)
        return SimpleNamespace(cumulative=SimpleNamespace(
            **{f: getattr(want, f) + shift for f in FIELDS}))

    monkeypatch.setattr(test_acceptance, "run_simulation", closed_form)
    monkeypatch.setattr(test_acceptance, "report", lambda name, ok, detail="": ok)
    passed = []
    for criterion in CRITERIA:
        try:
            criterion()
            passed.append(True)
        except AssertionError:
            passed.append(False)
    return configs, passed


@pytest.mark.parametrize("row", range(3))
def test_table_rows_are_criteria_1_and_2(monkeypatch, row):
    # the table's first rows must be the configs criteria 1-2 simulate, in
    # order, and each row's tolerance the bound its criterion applies
    configs, passed = run_criteria(monkeypatch, row, 0.99)
    assert configs == [case.config for case in ORACLE_CASES[:3]]
    assert passed == [True, True]
    _, passed = run_criteria(monkeypatch, row, 1.01)
    assert passed == [row != 0, row == 0]
