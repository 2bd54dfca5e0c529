import math

import pytest
from hypothesis import given, strategies as st

from synsim.metrics import cumulative_metrics, finalize_window, objective


def test_no_attack_floor_case():
    # arrivals, blocks (regular, attack), completions and legit expiries
    wm = finalize_window(counts=(500, 0, 0, 0, 490, 0),
                         integrals=(0.05 * 2.0, 0.0),
                         duration=2.0)
    assert wm.Ploss == 0.0
    assert wm.Pr == pytest.approx(0.05)
    assert wm.Pa == 0.0
    assert wm.J == pytest.approx(0.05 / (1e-6 * 1e-6))  # both factors floored at 1e-6


def test_half_blocked_ratio():
    wm = finalize_window((250, 250, 125, 125, 100, 0), (0.2, 0.2), 1.0)
    assert wm.Ploss == 0.5


def test_empty_window_is_an_error():
    with pytest.raises(ValueError, match="empty window"):
        finalize_window((1, 0, 0, 0, 0, 0), (0.0, 0.0), 0.0)
    with pytest.raises(ValueError, match="no windows to aggregate"):
        cumulative_metrics([])


def test_objective_direct_substitution():
    assert objective(0.4, 0.2, 0.1) == pytest.approx(20.0)


def test_objective_floor_on_numerator():
    assert objective(0.0, 0.5, 0.5) == pytest.approx(4e-6)


def test_objective_floors_on_denominator():
    assert objective(0.4, 0.0, 0.0) == pytest.approx(4e11)


@given(st.floats(1e-5, 1.0), st.floats(1e-5, 1.0), st.floats(1e-5, 1.0),
       st.floats(1e-5, 0.5))
def test_objective_monotonicity(pr, pa, ploss, bump):
    base = objective(pr, pa, ploss)
    assert objective(pr, pa + bump, ploss) <= base
    assert objective(pr, pa, ploss + bump) <= base
    assert objective(min(pr + bump, 1.0), pa, ploss) >= base


def test_scale_free_in_counts():
    a = finalize_window((300, 200, 30, 20, 100, 5), (0.1, 0.3), 2.0)
    b = finalize_window((600, 400, 60, 40, 200, 10), (0.1, 0.3), 2.0)
    assert a.Ploss == b.Ploss
    assert a.J == b.J


def test_cumulative_is_weighted_average():
    w1 = finalize_window((100, 100, 50, 0, 10, 0), (0.2, 0.4), 1.0)
    w2 = finalize_window((300, 100, 0, 50, 30, 0), (0.9, 0.3), 3.0)
    c = cumulative_metrics([w1, w2])
    assert c.Ploss == pytest.approx((50 + 50) / 600)
    # duration-weighted Pr/Pa reduce to summed integrals over total duration
    assert c.Pr == pytest.approx((0.2 + 0.9) / 4.0)
    assert c.Pa == pytest.approx((0.4 + 0.3) / 4.0)
    assert c.window_duration == pytest.approx(4.0)
    assert c.arrivals_regular == 400
    assert math.isfinite(c.J)
