import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from synsim.automata import Automaton


def make(p, a=0.1, b=0.05):
    auto = Automaton(tuple(range(len(p))), a=a, b=b)
    auto.p = tuple(map(float, p))
    return auto


def test_reward_two_actions():
    auto = make([0.5, 0.5], a=0.1)
    auto.last_selected = 0
    auto.reward(0)
    assert auto.p == pytest.approx([0.55, 0.45], abs=1e-12)


def test_reward_fixed_point():
    auto = make([1.0, 0.0], a=0.3)
    auto.last_selected = 0
    auto.reward(0)
    assert auto.p == pytest.approx([1.0, 0.0], abs=1e-12)


def test_reward_three_actions():
    auto = make([0.2, 0.3, 0.5], a=0.1)
    auto.last_selected = 2
    auto.reward(2)
    assert auto.p == pytest.approx([0.18, 0.27, 0.55], abs=1e-12)


def test_penalty_two_actions():
    auto = make([0.5, 0.5], b=0.1)
    auto.last_selected = 0
    auto.penalty(0)
    assert auto.p == pytest.approx([0.45, 0.55], abs=1e-12)


def test_penalty_identity_when_b_zero():
    auto = make([0.3, 0.7], b=0.0)
    auto.last_selected = 1
    auto.penalty(1)
    assert auto.p == pytest.approx([0.3, 0.7], abs=1e-12)


def test_penalty_three_actions():
    auto = make([1 / 3, 1 / 3, 1 / 3], b=0.3)
    auto.last_selected = 0
    auto.penalty(0)
    expected = [0.7 / 3, 0.15 + 0.7 / 3, 0.15 + 0.7 / 3]
    assert auto.p == pytest.approx(expected, abs=1e-12)
    assert sum(auto.p) == pytest.approx(1.0, abs=1e-12)


def test_feedback_for_unselected_action_rejected():
    auto = make([0.5, 0.5])
    auto.last_selected = 0
    with pytest.raises(ValueError, match="unselected"):
        auto.reward(1)
    with pytest.raises(ValueError, match="unselected"):
        auto.penalty(1)


@pytest.mark.parametrize("actions, a, b, message", [
    ((1.0,), 0.1, 0.05, "at least 2 actions"),
    ((1.0, 2.0), 0.0, 0.05, "reward step a"),
    ((1.0, 2.0), 1.0, 0.05, "reward step a"),
    ((1.0, 2.0), 0.1, -0.1, "penalty step b"),
    ((1.0, 2.0), 0.1, 1.0, "penalty step b"),
], ids=["one action", "a=0", "a=1", "b<0", "b=1"])
def test_bad_automaton_rejected(actions, a, b, message):
    with pytest.raises(ValueError, match=message):
        Automaton(actions, a=a, b=b)


def test_select_degenerate_distribution():
    auto = make([1.0, 0.0, 0.0])
    rng = np.random.default_rng(0)
    assert all(auto.select(rng) == 0 for _ in range(100))


def test_select_frequency_matches_probability():
    auto = make([0.5, 0.5])
    rng = np.random.default_rng(1)
    draws = sum(auto.select(rng) == 0 for _ in range(10000))
    assert abs(draws / 10000 - 0.5) < 0.02


def test_select_uniform_chi_square():
    r = 8
    auto = Automaton(tuple(range(r)), a=0.1, b=0.05)
    rng = np.random.default_rng(2)
    counts = np.bincount([auto.select(rng) for _ in range(100_000)], minlength=r)
    assert chisquare(counts).pvalue > 0.001


def test_reward_and_penalty_move_in_opposite_directions():
    auto = make([0.4, 0.6], a=0.2, b=0.2)
    auto.last_selected = 0
    auto.reward(0)
    assert auto.p[0] > 0.4
    auto = make([0.4, 0.6], a=0.2, b=0.2)
    auto.last_selected = 0
    auto.penalty(0)
    assert auto.p[0] < 0.4


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), st.floats(1e-3, 0.999), st.floats(0.0, 0.999),
       st.integers(0, 2 ** 31 - 1))
def test_simplex_preserved_under_random_updates(r, a, b, seed):
    rng = np.random.default_rng(seed)
    auto = Automaton(tuple(range(r)), a=a, b=b)
    for _ in range(50):
        i = auto.select(rng)
        if rng.random() < 0.5:
            auto.reward(i)
        else:
            auto.penalty(i)
        assert abs(sum(auto.p) - 1.0) <= 1e-9
        assert min(auto.p) >= 0.0 and max(auto.p) <= 1.0


def test_reward_inaction_absorbs_on_always_rewarded_action():
    # stationary environment: action 0 always favorable, others never
    hits = 0
    for seed in range(20):
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
    assert hits >= 19
