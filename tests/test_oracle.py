import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from synsim import DefenseParams, SimConfig, TrafficModel
from synsim.oracle import ORACLE_CASES, erlang_b, steady_state, two_class_loss


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


def lgamma_erlang_b(m, a):
    """B(m, a) = (a^m / m!) / sum of a^n / n! for n <= m, by lgamma log-sum-exp."""
    logs = [n * math.log(a) - math.lgamma(n + 1) for n in range(m + 1)]
    top = max(logs)
    return math.exp(logs[-1] - top - math.log(sum(math.exp(x - top) for x in logs)))


@pytest.mark.parametrize("a", [500.0, 1024.0, 1500.0, 3000.0])
def test_paper_capacity_against_log_space_sum(a):
    assert erlang_b(1024, a) == pytest.approx(lgamma_erlang_b(1024, a), rel=1e-10)


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
    # B is 0.0 from n = 3221 on, so this stops there, not at 10**9 steps
    assert erlang_b(10**9, 1500.0) == 0.0


def test_huge_capacity_under_a_dwarfing_load_returns_at_once():
    # 1e300 + 10**9 == 1e300 in float, so every step is 1.0: no 10**9 steps
    assert erlang_b(10**9, 1e300) == 1.0
    sol = steady_state(static_config("deterministic", 1e300, 100.0, m=10**9))
    assert (sol.Ploss, sol.Pr, sol.Pa) == (1.0, 1e-302, 1.0)  # Pr = a1 / a


@pytest.mark.parametrize("a", [2.0**63, 2.0**40])
def test_a_load_that_dwarfs_m_equals_the_full_recursion(a):
    # 2**63 + 1000 == 2**63 in float, so that load returns at once; 2**40's does not
    assert (a + 1000 == a) == (a == 2.0**63)
    assert erlang_b(1000, a) == full_recursion(1000, a)


@pytest.mark.parametrize("m, a, want", [
    (14999, 1e4, 0.0),           # log B = -1087.3, below log 2**-1075 = -745.1
    (150000, 1e5, 0.0),          # log B = -10826.6
    (3219, 1500.0, 1e-323),      # B = 7.6e-324
    (3220, 1500.0, 5e-324),      # B = 3.6e-324
])
def test_erlang_b_rounds_correctly_in_the_subnormal_range(m, a, want):
    assert lgamma_erlang_b(m, a) == want
    assert erlang_b(m, a) == want


def test_steady_state_blocks_nothing_where_b_rounds_to_zero():
    # a1 + a2 = 1e4 at m = 15000: Ploss = B(15000) < B(14999), which rounds to 0.0
    assert steady_state(static_config("exponential", 500.0, 1e-9, m=15000)).Ploss == 0.0


def test_infinite_load_blocks_everything():
    assert erlang_b(0, math.inf) == erlang_b(7, math.inf) == 1.0


def test_no_load_blocks_and_holds_nothing():
    for m in (1, 8):
        sol = two_class_loss(m, 0.0, 0.0)
        assert (sol.Ploss, sol.Pr, sol.Pa) == (0.0, 0.0, 0.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        erlang_b(-1, 1.0)
    with pytest.raises(ValueError):
        erlang_b(3, -0.5)
    with pytest.raises(ValueError, match="m must"):
        two_class_loss(0, 1.0, 1.0)
    for loads in ((-1.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="class loads"):
            two_class_loss(4, *loads)


def test_a_nan_load_or_rate_is_rejected_at_once():
    # a nan load would make erlang_b loop m times and return nan
    with pytest.raises(ValueError, match="offered load must be non-negative"):
        erlang_b(10**7, math.nan)
    for loads in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="class loads must be finite and non-negative"):
            two_class_loss(8, *loads)


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
    lambda1, lambda2, rate1, rate2 = rates
    sol = two_class_loss(m, lambda1 / rate1, lambda2 / rate2)
    assert (sol.Ploss, sol.Pr, sol.Pa) == pytest.approx(dense_ctmc(m, *rates),
                                                        abs=1e-12)


def test_symmetric_m1_hand_solution():
    sol = two_class_loss(1, 1.0, 1.0)
    assert sol.Ploss == pytest.approx(2 / 3, abs=1e-12)
    assert sol.Pr == pytest.approx(1 / 3, abs=1e-12)
    assert sol.Pa == pytest.approx(1 / 3, abs=1e-12)


def test_single_class_reduces_to_erlang_b():
    for m, lam, rate in [(5, 3.0, 1.0), (12, 5.0, 1.0), (30, 20.0, 2.0)]:
        sol = two_class_loss(m, lam / rate, 0.0)
        assert sol.Ploss == pytest.approx(erlang_b(m, lam / rate), abs=1e-9)
        assert sol.Pa == pytest.approx(0.0, abs=1e-12)


def test_exchangeable_classes_are_symmetric():
    sol = two_class_loss(9, 4.0 / 1.5, 4.0 / 1.5)
    assert sol.Pr == pytest.approx(sol.Pa, abs=1e-9)


# -- steady_state against exact arithmetic ------------------------------------

def one_minus_exp(x):
    """1 - e^-x for a Fraction x > 0: its series below 1, to 40 digits; e^-x
    to 60 digits up to 2000; 1 beyond, where e^-x < 1e-868."""
    if x < 1:
        term, total, n = x, Fraction(0), 1
        while abs(term) >= total * Fraction(1, 10**40):
            total += term
            n += 1
            term = -term * x / n
        return total
    if x > 2000:
        return Fraction(1)
    with localcontext() as ctx:
        ctx.prec = 60
        return 1 - Fraction((-Decimal(x.numerator) / Decimal(x.denominator)).exp())


def exact_steady_state(config):
    """steady_state's closed form in Fraction arithmetic from the config's
    floats, rounded to float at the end; None if a class load is past the
    largest float."""
    traffic, params = config.traffic, config.initial_params
    lambda1, lambda2, mu, h = map(Fraction, (traffic.lambda1, traffic.lambda2,
                                             traffic.mu, params.h))
    if config.hold_mode == "deterministic":
        mean = one_minus_exp(mu * h) / mu
    else:
        mean = h / (1 + mu * h)
    a1, a2 = lambda1 * mean, lambda2 * h
    if max(a1, a2) > Fraction(sys.float_info.max):
        return None
    a, b = a1 + a2, Fraction(1)
    for n in range(1, params.m + 1):
        b = a * b / (n + a * b)
    return tuple(map(float, (b, a1 * (1 - b) / params.m, a2 * (1 - b) / params.m)))


def check_exact(config):
    """Assert that steady_state(config) is exact_steady_state(config); False,
    having asserted that it raises, if a class load is past the largest float."""
    want = exact_steady_state(config)
    if want is None:
        with pytest.raises(ValueError, match="class loads must be finite and non-negative"):
            steady_state(config)
        return False
    got = steady_state(config)
    for name, g, w in zip(("Ploss", "Pr", "Pa"), (got.Ploss, got.Pr, got.Pa), want):
        # 1e-12 relative; below the normal range, 1e-12 of the smallest normal
        ok = g == w if w == 0.0 else math.isclose(g, w, rel_tol=1e-12,
                                                  abs_tol=1e-12 * sys.float_info.min)
        assert ok, (name, g, w)
    return True


def static_config(hold_mode, h, mu, lambda1=10.0, k=1.0, m=8):
    return SimConfig(master_seed=0, hold_mode=hold_mode, initial_params=DefenseParams(h, m),
                     traffic=TrafficModel(lambda1=lambda1, k=k, mu=mu))


@pytest.mark.parametrize("hold_mode, h, mu", [
    ("exponential", 1e307, 100.0),        # mu h overflows: a zero mean regular hold
    ("exponential", 1e300, 1e308),
    ("deterministic", 1e-300, 5e-324),    # mu h underflows to 0
    ("exponential", 1e307, 5e-324),       # a1 + a2 overflows
    ("deterministic", 1e307, 100.0),      # 1 - B cancels: Pa is about 1, not 0
])
def test_steady_state_is_exact_at_the_float_edges(hold_mode, h, mu):
    assert check_exact(static_config(hold_mode, h, mu))


@pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda case: case.name)
def test_steady_state_of_the_oracle_cases_is_exact(case):
    assert check_exact(case.config)


@pytest.mark.parametrize("hold_mode, lambda1, k, mu", [
    ("deterministic", 1e300, 1.0, 100.0),    # the attack load, 1e300 * 1e10
    ("exponential", 1e300, 0.0, 5e-324),     # the regular load, 1e300 / (mu + 1e-10)
])
def test_a_class_load_past_the_float_range_raises(hold_mode, lambda1, k, mu):
    config = static_config(hold_mode, 1e10, mu, lambda1, k)  # an accepted config
    with pytest.raises(ValueError, match="class loads must be finite and non-negative"):
        steady_state(config)


def test_steady_state_is_exact_on_a_grid_of_extreme_configs():
    checked = 0
    for hold_mode, lambda1, k, mu, h, m in itertools.product(
            ("deterministic", "exponential"), (1e-290, 10.0, 1e300),
            (0.0, 1e-300, 1.0, 1e300), (5e-324, 1e-300, 1.0, 100.0, 1e300, 1e308),
            (5e-324, 1e-310, 1e-300, 1e-20, 2.0, 1e300, 1e307, 1e308), (1, 8)):
        try:
            config = static_config(hold_mode, h, mu, lambda1, k, m)
        except ValueError:  # not an accepted config
            continue
        checked += check_exact(config)
    assert checked > 1000, checked
