import numpy as np
import pytest

from survconcord import (
    ComputationError,
    InputError,
    SurvivalMatrix,
    TimeGrid,
    default_common_grid,
    expected_mortality,
    interpolate,
    neg_rmst,
    risk_at_time,
)


def _matrix(grid_points, rows):
    return SurvivalMatrix(grid=TimeGrid(grid_points), probs=rows)


def test_interpolate_linear_midpoint():
    sm = _matrix([0.0, 2.0], [[1.0, 0.5]])
    out = interpolate(sm, TimeGrid([0.0, 1.0, 2.0]))
    assert out.probs[0].tolist() == [1.0, 0.75, 0.5]


def test_interpolate_identity_on_same_grid():
    sm = _matrix([0.0, 1.0, 5.0], [[1.0, 0.7, 0.3], [0.9, 0.9, 0.1]])
    out = interpolate(sm, sm.grid)
    assert np.array_equal(out.probs, sm.probs)


def test_interpolate_extends_both_sides():
    sm = _matrix([2.0, 4.0], [[0.8, 0.6]])
    out = interpolate(sm, TimeGrid([0.0, 1.0, 3.0, 5.0]))
    # Anchored at 1 before a late-starting source grid; carried forward after.
    assert out.probs[0].tolist() == [1.0, 1.0, 0.7, 0.6]


def test_interpolate_preserves_bounds_and_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.integers(2, 12)
        src = TimeGrid(np.sort(rng.uniform(0, 50, m)) + np.arange(m) * 1e-6)
        rows = np.sort(rng.random((3, m)), axis=1)[:, ::-1]
        sm = SurvivalMatrix(grid=src, probs=rows)
        dst = TimeGrid(np.sort(rng.uniform(0, 60, 15)) + np.arange(15) * 1e-6)
        out = interpolate(sm, dst)  # SurvivalMatrix would reject violations
        assert out.probs.min() >= 0.0 and out.probs.max() <= 1.0


def test_risk_at_time():
    sm = _matrix([0.0, 10.0], [[1.0, 0.2], [1.0, 0.8]])
    assert risk_at_time(sm, 10.0).tolist() == pytest.approx([0.8, 0.2])
    assert risk_at_time(sm, 0.0).tolist() == [0.0, 0.0]  # anchored at S(0)=1
    # Step lookup: the grid point at or before t, carried forward beyond it.
    sm = _matrix([1.0, 2.0], [[0.8, 0.4]])
    assert risk_at_time(sm, 1.0).tolist() == pytest.approx([0.2])
    assert risk_at_time(sm, 1.9).tolist() == pytest.approx([0.2])
    assert risk_at_time(sm, 50.0).tolist() == pytest.approx([0.6])
    with pytest.raises(InputError):
        risk_at_time(sm, -1.0)


@pytest.mark.parametrize("t", [5.0, 9.999, np.nan, np.inf])
def test_risk_at_time_rejects_a_time_before_the_grid_or_not_finite(t):
    # Before the grid every curve would read 1: every risk 0, every pair tied.
    sm = _matrix([10.0, 20.0], [[0.9, 0.5], [0.8, 0.3]])
    with pytest.raises(InputError, match="finite and >= the grid start 10"):
        risk_at_time(sm, t)
    assert risk_at_time(sm, 10.0).tolist() == pytest.approx([0.1, 0.2])


def test_expected_mortality_values():
    grid = [1.0, 2.0]
    assert expected_mortality(_matrix(grid, [[1.0, 1.0]]))[0] == 0.0
    m = expected_mortality(_matrix(grid, [[np.exp(-1.0), np.exp(-2.0)]]))
    assert m[0] == pytest.approx(3.0)


def test_expected_mortality_epsilon_substitution():
    # One subject hits exactly zero at the end; the smallest positive entry
    # of the whole matrix substitutes, keeping the sum finite and the
    # pointwise-dominated subject strictly riskier.
    sm = _matrix([0.0, 1.0, 2.0], [[1.0, 0.5, 0.25], [1.0, 0.2, 0.0]])
    m = expected_mortality(sm)
    assert np.all(np.isfinite(m))
    assert m[1] > m[0]
    with pytest.raises(ComputationError, match="degenerate"):
        expected_mortality(_matrix([0.0, 1.0], [[0.0, 0.0]]))


def test_neg_rmst_unit_curve_gives_horizon():
    grid = np.arange(0.0, 11.0)
    sm = _matrix(grid, [np.ones(11)])
    assert neg_rmst(sm, 10.0)[0] == -10.0


def test_neg_rmst_strict_horizon_and_uneven_grid():
    # Grid {0, 2, 5, 7}, horizon 6: rectangles 2, 3 and the clipped 1.
    sm = _matrix([0.0, 2.0, 5.0, 7.0], [[1.0, 0.5, 0.5, 0.1]])
    assert neg_rmst(sm, 6.0)[0] == pytest.approx(-(1.0 * 2 + 0.5 * 3 + 0.5 * 1))
    # Horizon past the grid: the last value carries to the horizon.
    assert neg_rmst(sm, 9.0)[0] == pytest.approx(-(2.0 + 1.5 + 1.0 + 0.1 * 2))
    with pytest.raises(InputError):
        neg_rmst(sm, 0.0)


def test_neg_rmst_monotone_under_pointwise_dominance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        m = rng.integers(2, 20)
        grid = TimeGrid(np.cumsum(rng.uniform(0.1, 3.0, m)) - 0.05)
        upper = np.sort(rng.random(m))[::-1]
        lower = upper * rng.uniform(0.0, 1.0, m).min()
        sm = SurvivalMatrix(grid=grid, probs=np.vstack([upper, lower]))
        t_star = float(grid.points[0]) + rng.uniform(0.1, 60.0)
        risks = neg_rmst(sm, t_star)
        assert risks[0] <= risks[1]  # dominating curve is never riskier


def test_expected_mortality_and_rmst_agree_on_nested_curves():
    rng = np.random.default_rng(9)
    grid = TimeGrid(np.arange(0.0, 25.0))
    hazards = np.sort(rng.uniform(0.01, 0.3, 10))
    probs = np.exp(-np.outer(hazards, grid.points))
    sm = SurvivalMatrix(grid=grid, probs=probs)
    em = expected_mortality(sm)
    nr = neg_rmst(sm, 25.0)
    assert np.array_equal(np.argsort(em), np.argsort(nr))


def test_default_common_grid():
    grid = default_common_grid()
    assert grid.points[0] == 0.0 and grid.points[-1] == 355.0 and len(grid) == 356
