import math

import numpy as np
import pytest

from synsim.oracle import erlang_b, two_class_loss


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


def full_recursion(m, a):
    b = 1.0
    for n in range(1, m + 1):
        b = a * b / (n + a * b)
    return b


@pytest.mark.parametrize("m, a", [(4000, 1500.0), (500, 1.0), (40, 0.0), (1024, 500.0)])
def test_early_stop_equals_the_full_recursion(m, a):
    # the first three underflow to 0.0 before n = m; the last never does
    assert erlang_b(m, a) == full_recursion(m, a)


def test_huge_capacity_returns_at_once():
    # B is 0.0 from n = 3220 on, so this stops there, not at 10**9 steps
    assert erlang_b(10**9, 1500.0) == 0.0


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
