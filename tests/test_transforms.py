import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from oracle import interpolate_reference, normalized_reference


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


def _hex(values):
    return [v.hex() for v in np.ravel(values).tolist()]


# Spacings down to the smallest subnormal: below about 1e-308 a slope can
# overflow to inf, so np.interp gives a non-finite value there.
_SPACINGS = [5e-324, 1e-310, 1e-300, 1e-3, 0.25, 1.0, 8.0]
_LEVELS = [1.0, 0.75, 0.5, 0.1, 1e-300, 5e-324, 0.0, -0.0]


@st.composite
def _regrid_instance(draw):
    """A matrix of nonincreasing rows and a grid with points before, at,
    between and beyond its source points."""
    start = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 0.5, 2.0]))
    steps = draw(st.lists(st.sampled_from(_SPACINGS), max_size=6))
    src = np.unique(np.cumsum([start, *steps]))
    mids = (src[:-1] + src[1:]) / 2
    pool = [*src, *mids, src[-1] + 1.0, 2 * src[-1] + 3.0]
    if src[0] > 0:
        pool += [0.0, src[0] / 2]
    picked = draw(st.lists(st.sampled_from([float(v) for v in pool]), min_size=1, max_size=12))
    extra = draw(st.lists(st.floats(0.0, 1.5 * float(src[-1]) + 1.0), max_size=4))
    n = draw(st.integers(0, 4))
    values = draw(st.lists(st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 1.0)),
                           min_size=n * src.size, max_size=n * src.size))
    probs = np.sort(np.reshape(values, (n, src.size)), axis=1)[:, ::-1]
    probs = np.asarray(probs, order=draw(st.sampled_from("CF")))
    return SurvivalMatrix(TimeGrid(src), probs), TimeGrid(np.unique(picked + extra))


@settings(max_examples=300, deadline=None)
@given(_regrid_instance())
@example((_matrix([3.0], [[0.5], [-0.0]]), TimeGrid([0.0, 3.0, 4.0])))
@example((_matrix([0.0, 1e-310, 1.0], [[1.0, 1.0, 0.0], [-0.0, -0.0, 0.0]]),
          TimeGrid([0.0, 5e-311, 1e-310, 0.5, 2.0])))
@example((_matrix([0.0, 1e-310, 1.0], [[1.0, 0.5, 0.0]]), TimeGrid([5e-311])))
def test_interpolate_equals_per_row_np_interp(instance):
    sm, dst = instance
    want = interpolate_reference(sm.grid.points, sm.probs, dst.points)
    if not np.isfinite(want).all():  # an overflowing slope
        with pytest.raises(InputError, match="non-finite"):
            interpolate(sm, dst)
        return
    got = interpolate(sm, dst).probs
    assert got.flags.c_contiguous  # row sums, as in neg_rmst, depend on the layout
    assert _hex(got) == _hex(normalized_reference(want))


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
    # An infinite horizon would give every subject -inf and tie them all.
    with pytest.raises(InputError, match="finite"):
        neg_rmst(sm, np.inf)


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
