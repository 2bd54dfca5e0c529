import itertools

import numpy as np

from synsim.controller import (LaController, StaticController, feedback_signal,
                               window_score)
from synsim.domain import DefenseParams, LaSettings, SimConfig, TrafficModel
from synsim.metrics import WindowMetrics, objective
from synsim.oracle import steady_state


def window_with_j(j):
    # the controller only reads J; fabricate the rest
    return WindowMetrics(500, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, j, 1.0)


def test_static_returns_fixed_params_every_round():
    ctrl = StaticController(DefenseParams(75.0, 128))
    rng = np.random.default_rng(0)
    assert ctrl.initial_params(rng) == DefenseParams(75.0, 128)
    for _ in range(100):
        assert ctrl.on_window_end(window_with_j(1.0), rng) == DefenseParams(75.0, 128)


def test_static_custom_params_pass_through():
    ctrl = StaticController(DefenseParams(10.0, 64))
    rng = np.random.default_rng(0)
    assert ctrl.on_window_end(window_with_j(5.0), rng) == DefenseParams(10.0, 64)


def test_feedback_strict_improvement_is_favorable():
    assert feedback_signal(20.0, 15.0) == 0


def test_feedback_tie_is_unfavorable():
    assert feedback_signal(15.0, 15.0) == 1


def test_feedback_first_window_always_favorable():
    # the worst possible first window is still rewarded and its pair kept
    ctrl = LaController(LaSettings())
    rng = np.random.default_rng(11)
    first = ctrl.initial_params(rng)
    hi = ctrl.h_automaton.last_selected
    p_before = ctrl.h_automaton.p[hi]
    worst = WindowMetrics(500, 0, 500, 0, 0, 0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert ctrl.on_window_end(worst, rng) == first
    assert ctrl.h_automaton.p[hi] > p_before


def test_feedback_previous_window_mode():
    # the baseline is the previous window, not the best one so far
    ctrl = LaController(LaSettings())
    rng = np.random.default_rng(4)
    ctrl.initial_params(rng)
    ctrl.on_window_end(window_with_j(100.0), rng)   # record
    ctrl.on_window_end(window_with_j(4.0), rng)     # worse: re-sample
    hi = ctrl.h_automaton.last_selected
    p_before = ctrl.h_automaton.p[hi]
    ctrl.on_window_end(window_with_j(5.0), rng)     # beats 4, not 100
    assert ctrl.h_automaton.p[hi] > p_before
    p_before = ctrl.h_automaton.p[hi]
    ctrl.on_window_end(window_with_j(5.0), rng)     # ties 5
    assert ctrl.h_automaton.p[hi] < p_before


def test_round_zero_selection_is_reproducible():
    settings = LaSettings()
    picks = set()
    for _ in range(3):
        ctrl = LaController(settings)
        picks.add(ctrl.initial_params(np.random.default_rng(99)))
    assert len(picks) == 1
    p = picks.pop()
    assert p.h in settings.h_actions and p.m in settings.m_actions


def test_round_zero_does_not_update_probabilities():
    ctrl = LaController(LaSettings())
    ctrl.initial_params(np.random.default_rng(1))
    assert np.allclose(ctrl.h_automaton.p, 1.0 / 8)
    assert np.allclose(ctrl.m_automaton.p, 1.0 / 5)


def test_favorable_retains_params_but_still_updates_vectors():
    settings = LaSettings(a=0.1, b=0.05)
    ctrl = LaController(settings)
    rng = np.random.default_rng(7)
    first = ctrl.initial_params(rng)
    hi, mi = ctrl.h_automaton.last_selected, ctrl.m_automaton.last_selected
    ph_before = ctrl.h_automaton.p.copy()
    # the first window is always favorable
    out = ctrl.on_window_end(window_with_j(10.0), rng)
    assert out == first
    assert ctrl.h_automaton.p[hi] > ph_before[hi]


def test_unfavorable_resamples_from_updated_vectors():
    settings = LaSettings()
    ctrl = LaController(settings)
    rng = np.random.default_rng(3)
    ctrl.initial_params(rng)
    ctrl.on_window_end(window_with_j(10.0), rng)       # sets the record
    out = ctrl.on_window_end(window_with_j(1.0), rng)  # worse: re-sample
    assert out.h in settings.h_actions and out.m in settings.m_actions


def test_both_automata_receive_same_signal():
    ctrl = LaController(LaSettings())
    rng = np.random.default_rng(5)
    ctrl.initial_params(rng)
    for j in (3.0, 1.0, 7.0, 2.0):
        hi, mi = ctrl.h_automaton.last_selected, ctrl.m_automaton.last_selected
        ph, pm = ctrl.h_automaton.p[hi], ctrl.m_automaton.p[mi]
        ctrl.on_window_end(window_with_j(j), rng)
        moved_up_h = ctrl.h_automaton.p[hi] > ph
        moved_up_m = ctrl.m_automaton.p[mi] > pm
        assert moved_up_h == moved_up_m


def synthetic_j(h, m):
    # unique maximum at the smallest h and the largest m
    return 1.0 / h + m / 1024.0


def test_synthetic_optimum_is_unique_by_enumeration():
    settings = LaSettings()
    pairs = list(itertools.product(settings.h_actions, settings.m_actions))
    scores = [synthetic_j(h, m) for h, m in pairs]
    best = pairs[int(np.argmax(scores))]
    assert best == (0.5, 1024)
    assert sorted(scores)[-1] > sorted(scores)[-2]  # strictly unique


def test_la_finds_synthetic_optimum():
    # With binary favorable/unfavorable feedback the joint mode of the two
    # probability vectors stays noisy, so only a majority is asked for on
    # each marginal mode.
    settings = LaSettings(a=0.1, b=0.05)
    modal_h_hits = modal_m_hits = 0
    for seed in range(50):
        ctrl = LaController(settings)
        rng = np.random.default_rng(seed)
        params = ctrl.initial_params(rng)
        noise = np.random.default_rng(seed + 1000)
        for _ in range(500):
            j = synthetic_j(params.h, params.m) * noise.lognormal(0.0, 0.05)
            params = ctrl.on_window_end(window_with_j(j), rng)
        if ctrl.h_automaton.actions[int(np.argmax(ctrl.h_automaton.p))] == 0.5:
            modal_h_hits += 1
        if ctrl.m_automaton.actions[int(np.argmax(ctrl.m_automaton.p))] == 1024:
            modal_m_hits += 1
    assert modal_h_hits >= 30
    assert modal_m_hits >= 30


def closed_form_window(h, m, k, n=500, eps=1e-6):
    # a window of n arrivals at the Erlang loss steady state of (h, m, k),
    # with the blocked count rounded to whole arrivals
    s = steady_state(SimConfig(master_seed=0, traffic=TrafficModel(k=k),
                               initial_params=DefenseParams(h, m)))
    blocked = round(n * s.Ploss)
    ploss = blocked / n
    return WindowMetrics(n, 0, blocked, 0, 0, 0, ploss, s.Pr, s.Pa,
                         objective(s.Pr, s.Pa, ploss, eps), 1.0)


def rate_weighted_means(k):
    # each pair's response rate: how often its window is favorable against
    # the window of a uniformly drawn other pair
    settings = LaSettings()
    pairs = list(itertools.product(settings.h_actions, settings.m_actions))
    scores = {p: window_score(closed_form_window(*p, k)) for p in pairs}
    rates = {x: sum(feedback_signal(scores[x], scores[y]) == 0
                    for y in pairs if y != x)
             for x in pairs}
    total = sum(rates.values())
    return (sum(h * r for (h, _), r in rates.items()) / total,
            sum(m * r for (_, m), r in rates.items()) / total)


def test_window_score_moves_h_down_and_m_up_with_attack_ratio():
    h_light, m_light = rate_weighted_means(0.5)
    h_heavy, m_heavy = rate_weighted_means(2.0)
    # J alone moves h by 2% and m by 3% here; the score moves them by 11% and 24%
    assert h_heavy < 0.95 * h_light
    assert m_heavy > 1.05 * m_light


def test_window_score_ranks_loss_then_regular_share_then_j():
    base = WindowMetrics(500, 0, 0, 0, 0, 0, 0.0, 0.001, 0.5, 10.0, 1.0)
    fewer_losses = WindowMetrics(500, 0, 0, 0, 0, 0, 0.0, 0.0005, 0.9, 1.0, 1.0)
    lossy = WindowMetrics(500, 0, 1, 0, 0, 0, 0.002, 0.002, 0.1, 1e3, 1.0)
    more_pr = WindowMetrics(500, 0, 0, 0, 0, 0, 0.0, 0.002, 0.9, 1.0, 1.0)
    higher_j = WindowMetrics(500, 0, 0, 0, 0, 0, 0.0, 0.001, 0.5, 20.0, 1.0)
    assert window_score(fewer_losses) > window_score(lossy)
    assert window_score(more_pr) > window_score(base)
    assert window_score(higher_j) > window_score(base)
