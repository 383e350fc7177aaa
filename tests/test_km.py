import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survconcord import (
    ComputationError,
    InputError,
    StepFunction,
    SurvivalDataset,
    ipcw_weights,
    km_fit,
)
from survconcord import engine

from oracle import km_reference


def test_no_censoring_matches_empirical_survivor():
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    f = km_fit(ds, "event")
    assert f.jump_times.tolist() == [1.0, 2.0, 3.0]
    assert f.values.tolist() == pytest.approx([2 / 3, 1 / 3, 0.0])


def test_mixed_fixture_hand_product_limit():
    # Risk sets 3, 2, 1; censoring at t=2 leaves no jump there.
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 0, 1])
    f = km_fit(ds, "event")
    assert abs(f.evaluate(1.0) - 2 / 3) < 1e-15
    assert abs(f.evaluate(2.0) - 2 / 3) < 1e-15
    assert abs(f.evaluate(3.0) - 0.0) < 1e-15


def test_censoring_target_equals_flipped_events():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        times = rng.integers(1, 10, n).astype(float)
        events = rng.integers(0, 2, n)
        ds = SurvivalDataset(times=times, events=events)
        flipped = SurvivalDataset(times=times, events=1 - events)
        g = km_fit(ds, "censoring")
        s = km_fit(flipped, "event")
        assert g.jump_times.tolist() == s.jump_times.tolist()
        assert g.values.tolist() == s.values.tolist()


def test_km_bounded_and_nonincreasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        ds = SurvivalDataset(
            times=rng.exponential(5.0, n), events=rng.integers(0, 2, n)
        )
        f = km_fit(ds, "event")
        if f.values.size:
            assert f.values.min() >= 0.0 and f.values.max() <= 1.0
            assert np.all(np.diff(f.values) <= 0)


def test_all_events_gives_constant_censoring_survivor():
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    g = km_fit(ds, "censoring")
    assert g.jump_times.size == 0
    assert g.evaluate(0.0) == 1.0 and g.evaluate(100.0) == 1.0


def test_empty_dataset_rejected():
    with pytest.raises(ComputationError, match="no records"):
        km_fit(SurvivalDataset(times=[], events=[]), "event")


def test_matches_statsmodels_survival_function():
    sm_api = pytest.importorskip("statsmodels.api")
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(5, 200))
        times = np.round(rng.exponential(5.0, n), 1)
        events = rng.integers(0, 2, n)
        if events.sum() == 0:
            continue
        ds = SurvivalDataset(times=times, events=events)
        ours = km_fit(ds, "event")
        theirs = sm_api.SurvfuncRight(times, events)
        expected = np.asarray(theirs.surv_prob)
        got = np.asarray(ours.evaluate(np.asarray(theirs.surv_times)))
        assert np.allclose(got, expected, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), st.integers(0, 1)),
    min_size=1, max_size=40,
))
@example([(-0.0, 1), (0.0, 0), (0.0, 1), (1.0, 0)])
@example([(0.0, 0), (-0.0, 1), (-0.0, 0)])
def test_km_fit_equals_naive_reference_bit_for_bit(records):
    times, events = zip(*records)
    ds = SurvivalDataset(times=times, events=events)
    for target in ("event", "censoring"):
        fit = km_fit(ds, target)
        jumps, values = km_reference(ds, target)
        assert fit.jump_times.tolist() == jumps
        # -0.0 == 0.0, so the sign of a jump at zero is compared on its own.
        assert np.signbit(fit.jump_times).tolist() == np.signbit(jumps).tolist()
        assert fit.values.tolist() == values


_TIE_RICH = st.lists(
    st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0]), st.integers(0, 1)),
    min_size=1, max_size=30,
)
_UNTIED = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30, unique=True).flatmap(
    lambda times: st.tuples(st.just(times), st.lists(
        st.integers(0, 1), min_size=len(times), max_size=len(times)))
).map(lambda pair: list(zip(*pair)))
_ALL_EVENTS = st.lists(st.floats(0.0, 5.0).map(lambda t: round(t, 1)), min_size=1,
                       max_size=30).map(lambda times: [(t, 1) for t in times])


@st.composite
def _weighted_records(draw):
    """Records with tied, untied or only event times, and a multiplicity each."""
    records = draw(st.one_of(_TIE_RICH, _UNTIED, _ALL_EVENTS))
    mult = draw(st.lists(st.integers(0, 4), min_size=len(records), max_size=len(records)))
    return records, mult


def _assert_weighted_fits_equal_reference(records, mult):
    """Each fit from multiplicities equals the naive fit on the repeated rows."""
    times, events = (np.array(column) for column in zip(*records))
    mult = np.array(mult)
    groups = engine._time_groups(times)
    for target, hits in (("event", events == 1), ("censoring", events == 0)):
        if not mult.any():
            with pytest.raises(ComputationError, match="no records"):
                engine._km_from_groups(groups, hits, mult)
            continue
        fit = engine._km_from_groups(groups, hits, mult)
        repeated = SurvivalDataset(times=np.repeat(times, mult),
                                   events=np.repeat(events, mult))
        jumps, values = km_reference(repeated, target)
        assert fit.jump_times.tolist() == jumps
        assert fit.values.tolist() == values


@settings(max_examples=200, deadline=None)
@given(_weighted_records())
@example(([(-0.0, 1), (0.0, 0), (0.0, 1), (1.0, 0)], [0, 2, 1, 3]))
def test_km_fit_from_multiplicities_equals_naive_reference(instance):
    _assert_weighted_fits_equal_reference(*instance)


@settings(max_examples=100, deadline=None)
@given(_weighted_records())
def test_km_fit_falls_back_to_fractions_bit_for_bit(instance):
    # Two-bit bounds round apart at once, so the exact product takes over.
    with mock.patch.object(engine, "_PRODUCT_BITS", 2):
        _assert_weighted_fits_equal_reference(*instance)


def test_km_product_bounds_that_round_apart_continue_exactly():
    with mock.patch.object(engine, "_PRODUCT_BITS", 2), \
            mock.patch.object(engine.math, "prod", wraps=math.prod) as exact:
        values = engine._product_values([2, 1, 4], [3, 3, 7])
    assert exact.called
    assert values == [2 / 3, float(Fraction(2, 9)), float(Fraction(8, 63))]
    assert engine._product_values([2, 1, 4], [3, 3, 7]) == values
    # Past 2**53 the products round, and dividing the roundings is an ulp low here.
    nums, dens = [3253749, 2057976, 5278887, 2977863], [3254257, 2058756, 5279348, 2978347]
    with mock.patch.object(engine, "_PRODUCT_BITS", 2):
        deep = engine._product_values(nums, dens)
    assert deep == [float(Fraction(math.prod(nums[:k]), math.prod(dens[:k]))) for k in (1, 2, 3, 4)]


def test_step_evaluation_left_and_right():
    f = StepFunction(jump_times=[2.0], values=[0.5])
    assert f.evaluate(2.0) == 0.5
    assert f.evaluate_left(2.0) == 1.0
    assert f.evaluate(0.0) == 1.0
    assert f.evaluate(99.0) == 0.5  # constant beyond the last jump


@pytest.mark.parametrize("jump_times", [[np.nan], [1.0, np.inf], [2.0, 1.0], [1.0, 1.0]])
def test_step_function_rejects_bad_jump_times(jump_times):
    # A lone NaN jump would read 1.0 at every time.
    with pytest.raises(InputError, match="finite and strictly increasing"):
        StepFunction(jump_times, [0.5] * len(jump_times))


@pytest.mark.parametrize("values", [[np.nan, 0.5], [0.8, np.nan], [0.8, 0.9], [1.5, 0.5]])
def test_step_function_rejects_bad_values(values):
    # A NaN value, first or last, would read as NaN from its jump on.
    with pytest.raises(InputError, match="nonincreasing within"):
        StepFunction([1.0, 2.0], values)


@pytest.mark.parametrize("f", [
    StepFunction([1.0, 2.0], [0.8, 0.5]),
    StepFunction([], []),
])
@pytest.mark.parametrize("t", [np.nan, [1.0, np.nan]])
def test_step_evaluation_rejects_nan(f, t):
    # A NaN time must not read as the value beyond the last jump.
    for evaluate in (f.evaluate, f.evaluate_left):
        with pytest.raises(InputError, match="NaN time"):
            evaluate(t)


def test_ipcw_schemes():
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    g = km_fit(ds, "censoring")  # no censoring events: G == 1
    assert ipcw_weights(g, ds, "uniform").tolist() == [1.0, 1.0, 1.0]
    assert ipcw_weights(g, ds, "uno_squared").tolist() == [1.0, 1.0, 1.0]
    assert ipcw_weights(g, ds, "pec_product").tolist() == [1.0, 1.0, 1.0]

    # Single jump 1 -> 0.5 at t=2: G(2-) = 1, G(2) = 0.5.
    g2 = StepFunction(jump_times=[2.0], values=[0.5])
    at2 = SurvivalDataset(times=[2.0], events=[1])
    assert ipcw_weights(g2, at2, "pec_product")[0] == pytest.approx(2.0)
    assert ipcw_weights(g2, at2, "uno_squared")[0] == pytest.approx(4.0)

    # Where G is continuous (no jump at the time), both schemes agree.
    at3 = SurvivalDataset(times=[3.0], events=[1])
    assert ipcw_weights(g2, at3, "pec_product")[0] == pytest.approx(4.0)
    assert ipcw_weights(g2, at3, "uno_squared")[0] == pytest.approx(4.0)

    # G = 0 at the needed point: flagged as undefined, not infinite.
    g3 = StepFunction(jump_times=[2.0], values=[0.0])
    assert np.isnan(ipcw_weights(g3, at2, "uno_squared")[0])
