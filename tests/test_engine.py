import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from survconcord import (
    BootstrapSpec,
    ComputationError,
    ConcordancePolicy,
    InputError,
    PairCase,
    PairTally,
    Profile,
    StepFunction,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    Truncation,
    antolini_policy,
    concordance,
    concordance_td,
    decompose,
    get_profiles,
    neg_rmst,
    profile_from_dict,
    profile_to_dict,
    run_multiverse,
    tie_weighted_policy,
)
from survconcord import engine
from survconcord.engine import (
    STRICT_PAIRS,
    _cases,
    _ColumnSet,
    _curve_cells,
    _exact_sums,
    _reduce,
    _rounded,
    _scalar_build,
    _scalar_read,
    _Scorer,
)
from survconcord.engine import ipcw_weights, km_fit

from conftest import random_instance
from oracle import (
    brute_force_oracle,
    dense_curve_counts,
    dense_scalar_counts,
    fsum_reduce,
    td_brute_force_oracle,
)

HARRELL = tie_weighted_policy(0.0, 0.0)
ANTOLINI = antolini_policy(adjusted=False)
ADJ_ANTOLINI = antolini_policy(adjusted=True)


def _scalar_cells(times, events, risks, tol):
    """The scalar producer's cells for the data itself: every subject once."""
    return _scalar_read(_scalar_build(times, events, risks, tol), np.ones(times.size, int))


def _curve_cells_once(times, events, points, probs, tol):
    return _curve_cells(times, events, points, probs, tol, np.ones(times.size, int))


def test_four_subject_fixture(four_subjects):
    ds, risks = four_subjects
    est, tally = concordance(ds, risks, HARRELL)
    assert est == pytest.approx(0.8)
    assert tally.denominator == 5.0 and tally.numerator == 4.0

    with_tied_times = tie_weighted_policy(1.0, 0.0)
    est2, tally2 = concordance(ds, risks, with_tied_times)
    assert est2 == pytest.approx(4 / 6)
    # The censored-at-3 / event-at-3 pair is comparable and discordant.
    assert tally2.case_counts["6B"] == 1


def test_perfect_and_reversed_ranking():
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0], events=[1, 1, 1, 1])
    risks = np.array([4.0, 3.0, 2.0, 1.0])
    assert concordance(ds, risks, HARRELL)[0] == 1.0
    assert concordance(ds, -risks, HARRELL)[0] == 0.0


def test_monotone_invariance_of_risks():
    rng = np.random.default_rng(5)
    ds, risks = random_instance(rng)
    a, _ = concordance(ds, risks, HARRELL)
    b, _ = concordance(ds, np.exp(risks), HARRELL)
    assert a == b


def test_reversal_maps_to_complement():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ds, risks = random_instance(rng)
        risks = risks + np.linspace(0, 1e-6, ds.n)  # break exact ties
        try:
            a, _ = concordance(ds, risks, HARRELL)
            b, _ = concordance(ds, -risks, HARRELL)
        except ComputationError:
            continue
        assert a + b == pytest.approx(1.0, abs=1e-12)


def test_tie_tolerance_widens_tied_band():
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    risks = [0.5, 0.5 - 1e-9]
    exact = tie_weighted_policy(0.0, 0.5)
    assert concordance(ds, risks, exact)[0] == 1.0  # strictly greater
    tol = tie_weighted_policy(0.0, 0.5, tie_tolerance=1e-8)
    assert concordance(ds, risks, tol)[0] == 0.5  # tied within tolerance


def test_truncation_is_strict_and_monotone():
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0], events=[1, 1, 1, 1])
    risks = [4.0, 3.0, 2.0, 1.0]
    _, tally_all = concordance(ds, risks, HARRELL)
    pol2 = tie_weighted_policy(0.0, 0.0, truncation=Truncation("value", 2.0))
    _, tally2 = concordance(ds, risks, pol2)
    # Only the anchor at t=1 clears the strict bound.
    assert tally2.denominator == 3.0 < tally_all.denominator
    pol3 = tie_weighted_policy(0.0, 0.0, truncation=Truncation("value", 3.5))
    _, tally3 = concordance(ds, risks, pol3)
    assert tally2.denominator <= tally3.denominator <= tally_all.denominator


def test_max_uncensored_truncation_resolution():
    ds = SurvivalDataset(times=[1.0, 2.0, 5.0, 9.0], events=[1, 1, 1, 0])
    pol = tie_weighted_policy(0.0, 0.0, truncation=Truncation("max_uncensored"))
    assert pol.truncation.resolve(ds.times[ds.events == 1]) == 5.0
    all_censored = SurvivalDataset(times=[1.0, 2.0], events=[0, 0])
    with pytest.raises(ComputationError):
        pol.truncation.resolve(all_censored.times[all_censored.events == 1])


def test_uno_weights_reduce_to_harrell_without_censoring():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        ds = SurvivalDataset(times=rng.exponential(5, n), events=np.ones(n, int))
        risks = rng.normal(size=n)
        uniform, _ = concordance(ds, risks, HARRELL)
        uno = tie_weighted_policy(
            0.0, 0.0, weight_scheme="uno_squared",
            truncation=Truncation("value", float(ds.times.max()) + 1.0),
        )
        weighted, _ = concordance(ds, risks, uno)
        assert weighted == uniform  # exact: all weights are 1


def test_estimate_bounds_and_max_fold():
    rng = np.random.default_rng(13)
    folded = tie_weighted_policy(0.0, 0.5, final_fold="max_with_complement")
    for _ in range(20):
        ds, risks = random_instance(rng, tie_rich=True)
        try:
            est, _ = concordance(ds, risks, HARRELL)
            est_f, _ = concordance(ds, risks, folded)
        except ComputationError:
            continue
        assert 0.0 <= est <= 1.0
        assert 0.5 <= est_f <= 1.0


def test_pairs_with_undefined_weight_are_dropped_and_counted():
    # A censoring survivor fitted elsewhere can hit 0 before the last event
    # time; anchors there get undefined weights and their pairs are dropped.
    ds = SurvivalDataset(times=[1.0, 3.0, 4.0], events=[1, 1, 1])
    risks = [3.0, 1.0, 2.0]
    g = StepFunction(jump_times=[2.0], values=[0.0])
    pol = tie_weighted_policy(
        0.0, 0.0, weight_scheme="uno_squared", g_source="provided"
    )
    est, tally = concordance(ds, risks, pol, g=g)
    # The (3, 4) pair would be discordant but its anchor has G = 0.
    assert tally.dropped_pairs == 1
    assert est == 1.0
    assert brute_force_oracle(ds, risks, pol, g=g) == pytest.approx(est, abs=1e-12)


def test_weights_that_overflow_are_dropped_without_warning():
    # G(3) = 1e-160 gives G^2 = 1e-320, whose reciprocal overflows: the
    # anchor's weight is undefined, as for G = 0, and its pair is dropped.
    ds = SurvivalDataset(times=[1.0, 3.0, 4.0], events=[1, 1, 1])
    risks = [3.0, 1.0, 2.0]
    g = StepFunction(jump_times=[0.5, 2.5], values=[0.5, 1e-160])
    pol = tie_weighted_policy(
        0.0, 0.0, weight_scheme="uno_squared", g_source="provided"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est, tally = concordance(ds, risks, pol, g=g)
    assert tally.dropped_pairs == 1
    assert est == 1.0
    assert brute_force_oracle(ds, risks, pol, g=g) == est


@pytest.mark.parametrize("count, weights", [
    (1, [1.0, np.inf]),
    (10, [1.0, 1e308]),  # the term overflows
    (1, [1e308, 1e308]),  # each term is finite, their sum is not
])
def test_reducer_rejects_sums_that_are_not_finite(count, weights):
    # These have no float sum; they raise instead of scoring NaN or inf.
    counts = np.zeros((2, 18), dtype=np.int64)
    counts[:, 0] = count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="not finite"):
            _reduce(_ColumnSet(counts, np.array([1.0, 2.0]), np.array(weights), None,
                               np.ones(2, int), 0), HARRELL)


def test_no_comparable_pairs_errors():
    single = SurvivalDataset(times=[1.0], events=[1])
    with pytest.raises(ComputationError, match="no comparable pairs"):
        concordance(single, [0.5], HARRELL)
    with pytest.raises(ComputationError, match="no comparable pairs"):
        brute_force_oracle(single, [0.5], HARRELL)
    all_censored = SurvivalDataset(times=[1.0, 2.0], events=[0, 0])
    with pytest.raises(ComputationError):
        concordance(all_censored, [1.0, 0.0], HARRELL)


def test_empty_dataset_is_a_computation_error():
    empty = SurvivalDataset(times=[], events=[])
    sm = SurvivalMatrix(TimeGrid(np.array([1.0, 2.0])), np.empty((0, 2)))
    with pytest.raises(ComputationError, match="no comparable pairs"):
        concordance(empty, [], HARRELL)
    with pytest.raises(ComputationError, match="no comparable pairs"):
        concordance_td(empty, sm, ANTOLINI)
    report = run_multiverse(empty, risks=[], matrix=sm, tau=Truncation("value", 1.5),
                            bootstrap=BootstrapSpec(3))
    errors = {r.name: r.error for r in report.results}
    # Uniform profiles find no pairs; weighted ones cannot fit the censoring.
    assert set(errors.values()) == {"no comparable pairs", "no records"}
    assert errors["hmisc"] == errors["pycox_ant"] == "no comparable pairs"
    assert all(r.estimate is None for r in report.results)


def test_invalid_inputs_rejected():
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    with pytest.raises(InputError):
        concordance(ds, [np.nan, 1.0], HARRELL)
    with pytest.raises(InputError):
        concordance(ds, [1.0], HARRELL)
    provided_only = tie_weighted_policy(
        0.0, 0.0, weight_scheme="uno_squared", g_source="provided"
    )
    with pytest.raises(InputError, match="censoring distribution"):
        concordance(ds, [1.0, 0.0], provided_only)
    for tol in (np.nan, np.inf):
        with pytest.raises(InputError, match="tie tolerance must be finite"):
            tie_weighted_policy(0.0, 0.5, tie_tolerance=tol)


@pytest.mark.parametrize(
    "omega_o, omega_p", [(-1.0, 0.5), (1.0, 1.5), (np.nan, 0.5), (1.0, np.nan)]
)
def test_tie_weighted_policy_rejects_bad_omegas(omega_o, omega_p):
    # The policy's own case-table checks: 6A weight >= 0 and finite, 1C
    # credit in [0, 1].
    with pytest.raises(InputError, match="case (6A|1C)"):
        tie_weighted_policy(omega_o, omega_p)


def test_provided_censoring_is_refused_before_counting(monkeypatch):
    """Both entry points refuse a policy whose G must come from elsewhere
    when none is given, and the curve producer is never reached."""
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    sm = SurvivalMatrix(TimeGrid(np.array([1.0, 2.0])), np.array([[0.9, 0.5], [0.8, 0.4]]))
    provided_only = antolini_policy().replace(
        weight_scheme="uno_squared", g_source="provided"
    )

    def counting(*args):
        raise AssertionError("counted before refusing")

    monkeypatch.setattr(engine, "_curve_cells", counting)
    with pytest.raises(InputError, match="policy requires an externally fitted censoring"):
        concordance_td(ds, sm, provided_only)
    with pytest.raises(InputError, match="policy requires an externally fitted censoring"):
        concordance(ds, [1.0, 0.0], provided_only)


def test_engine_matches_brute_force_on_randoms():
    rng = np.random.default_rng(42)
    schemes = ["uniform", "uno_squared", "pec_product"]
    truncs = [Truncation(), Truncation("max_uncensored"), Truncation("value", 5.0)]
    checked = 0
    for k in range(60):
        ds, risks = random_instance(rng, n_max=80, tie_rich=bool(k % 2))
        pol = tie_weighted_policy(
            float(rng.integers(0, 2)),
            0.5 * float(rng.integers(0, 2)),
            tie_tolerance=[0.0, 0.05][k % 2],
            weight_scheme=schemes[k % 3],
            truncation=truncs[k % 3],
        )
        try:
            est, _ = concordance(ds, risks, pol)
        except ComputationError:
            with pytest.raises(ComputationError):
                brute_force_oracle(ds, risks, pol)
            continue
        assert est == pytest.approx(brute_force_oracle(ds, risks, pol), abs=1e-12)
        checked += 1
    assert checked > 30


def _curves(sm):
    """A matrix as the (grid points, probs) pair the curve producer reads."""
    return sm.grid.points, sm.probs


def _tied_curves(rng, ds):
    """Survival curves on an integer grid, rounded so that many values tie."""
    grid = TimeGrid(np.arange(0.0, ds.times.max()))
    probs = np.round(np.sort(rng.random((ds.n, len(grid))), axis=1)[:, ::-1], 1)
    return SurvivalMatrix(grid=grid, probs=probs)


def test_blockwise_reduction_is_bit_identical():
    rng = np.random.default_rng(77)
    ds, risks = random_instance(rng, n_max=120, tie_rich=True)
    sm = _tied_curves(rng, ds)
    g = km_fit(ds, target="censoring")
    # Each producer's cells, mapped to cases, give the dense reference's counts.
    curve_counts = [
        _cases(_curve_cells_once(ds.times, ds.events, *_curves(sm), 0.0), ds.events),
        dense_curve_counts(ds.times, ds.events, sm, 0.0)[0],
    ]
    assert np.array_equal(*curve_counts)
    scalar_counts = [
        _cases(_scalar_cells(ds.times, ds.events, risks, 0.0), ds.events),
        dense_scalar_counts(ds.times, ds.events, risks, 0.0),
    ]
    assert np.array_equal(*scalar_counts)

    perm = rng.permutation(ds.n)
    shuffled = ds.subset(perm)
    shuffled_sm = SurvivalMatrix(grid=sm.grid, probs=sm.probs[perm])
    for scheme in ("uniform", "uno_squared", "pec_product"):
        pol = tie_weighted_policy(1.0, 0.5, weight_scheme=scheme)
        weights = ipcw_weights(g, ds, scheme)
        for counts, permuted in (
            (scalar_counts, concordance(shuffled, risks[perm], pol, g=g)),
            (curve_counts, concordance_td(shuffled, shuffled_sm, pol, g=g)),
        ):
            tallies = [_reduce(_ColumnSet(c, ds.times, weights, None, np.ones(ds.n, int), 0), pol)
                       for c in counts]
            # Reordering the anchors changes no bit of a correctly rounded sum.
            tallies.append(permuted[1])
            first = tallies[0]
            for t in tallies[1:]:
                assert t.numerator == first.numerator
                assert t.denominator == first.denominator
                assert t.case_counts == first.case_counts
                assert t.case_comparable == first.case_comparable
                assert t.case_credit == first.case_credit


def test_reducer_refuses_more_rows_than_it_sums_exactly(monkeypatch):
    monkeypatch.setattr("survconcord.engine._EXACT_ROWS", 2)
    counts = np.ones((2, 18), dtype=np.int64)
    with pytest.raises(ComputationError, match="exactly"):
        _reduce(_ColumnSet(counts, np.array([1.0, 2.0]), np.ones(2), None, np.ones(2, int), 0),
                HARRELL)


def test_reducer_counts_multiplicities_against_the_row_bound():
    # One row taken 2**26 times reaches the bound without 2**26 rows.
    ints = _exact_sums(np.ones((1, 3)), np.array([(1 << 26) - 1]))
    assert [_rounded(v) for v in ints] == [(1 << 26) - 1.0] * 3
    with pytest.raises(ComputationError, match="exactly"):
        _exact_sums(np.ones((1, 3)), np.array([1 << 26]))
    with pytest.raises(ComputationError, match="exactly"):
        _reduce(_ColumnSet(np.ones((1, 18), dtype=np.int64), np.array([1.0]), np.ones(1),
                           None, np.array([1 << 26]), 0), HARRELL)


@st.composite
def _weighted_terms(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    terms = draw(arrays(np.float64, (rows, cols),
                        elements=st.floats(-1e290, 1e290, allow_subnormal=True)))
    return terms, draw(arrays(np.int64, rows, elements=st.integers(0, 6)))


@settings(max_examples=200, deadline=None)
@given(_weighted_terms())
@example((np.array([[0.1], [1e-300], [-0.1]]), np.array([3, 0, 2])))
def test_exact_sums_with_multiplicities_equal_the_repeated_rows(instance):
    terms, mult = instance
    repeated = np.repeat(terms, mult, axis=0)
    sums = []
    for ints in (_exact_sums(terms, mult),
                 _exact_sums(repeated, np.ones(len(repeated), int))):
        sums.append([_rounded(v).hex() for v in ints])
    assert sums[0] == sums[1] == [math.fsum(col).hex() for col in repeated.T.tolist()]


_REDUCE_POLICIES = [p.policy for p in get_profiles()] + [
    # Weights and credits that are not dyadic, so each term carries its own rounding.
    ConcordancePolicy({
        PairCase.C1A: (0.3, 0.7), PairCase.C1B: (0.3, 0.0), PairCase.C1C: (0.3, 0.3),
        PairCase.C2A: (0.7, 1.0), PairCase.C2C: (0.7, 0.7), PairCase.C5C: (0.3, 0.7),
        PairCase.C6A: (0.7, 0.3), PairCase.C7B: (0.1, 0.7),
    }),
]


@st.composite
def _reduce_instance(draw):
    n = draw(st.integers(0, 40))
    counts = draw(arrays(np.int64, (n, 18), elements=st.integers(0, 10**6)))
    times = draw(arrays(np.float64, n, elements=st.integers(0, 9).map(float)))
    # Weights of exactly 1 sum as integers and IPCW weights are at least 1;
    # smaller ones, subnormal included, cannot be halved exactly.
    weight = draw(st.sampled_from([
        st.sampled_from([1.0, np.nan]),
        st.one_of(st.just(1.0), st.floats(1.0, 1e12), st.just(np.nan)),
        st.one_of(st.floats(0.0, 1.0, allow_subnormal=True), st.floats(1.0, 1e12)),
    ]))
    weights = draw(arrays(np.float64, n, elements=weight))
    # tau 0 keeps no anchor, 5 some and 10 all of them.
    tau = draw(st.sampled_from([None, 0.0, 5.0, 10.0]))
    mult = draw(arrays(np.int64, n, elements=st.integers(0, 6)))
    return counts, times, weights, tau, mult


def _repeated_reference(instance, policy):
    """``fsum_reduce`` on the rows repeated as often as drawn."""
    counts, times, weights, tau, mult = instance
    return fsum_reduce(np.repeat(counts, mult, axis=0), np.repeat(times, mult), policy,
                       np.repeat(weights, mult), tau)


def _assert_same_tally(got, want):
    assert got.numerator.hex() == want.numerator.hex()
    assert got.denominator.hex() == want.denominator.hex()
    for values in ("case_comparable", "case_credit"):
        got_v, want_v = getattr(got, values), getattr(want, values)
        assert list(got_v) == list(want_v)
        assert [v.hex() for v in got_v.values()] == [v.hex() for v in want_v.values()]
    assert got.case_counts == want.case_counts
    assert got.dropped_pairs == want.dropped_pairs
    assert got.tau == want.tau


_EMPTY = (np.zeros((0, 18), dtype=np.int64), np.zeros(0), np.zeros(0), None,
          np.zeros(0, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(_reduce_instance(), st.sampled_from(_REDUCE_POLICIES))
@example(_EMPTY, HARRELL)
# The smallest subnormal weight halves to 0, so halving its sum for a
# credit of 1/2 (hmisc's tied risks) is not exact.
@example((np.ones((2, 18), dtype=np.int64), np.zeros(2), np.array([5e-324, 5e-324]), None,
          np.array([3, 1])), _REDUCE_POLICIES[0])
def test_reduce_equals_fsum_reference_bit_for_bit(instance, policy):
    got = _reduce(_ColumnSet(*instance, 0), policy)
    _assert_same_tally(got, _repeated_reference(instance, policy))


@settings(max_examples=150, deadline=None)
@given(_reduce_instance(),
       st.lists(st.sampled_from(_REDUCE_POLICIES), min_size=1, max_size=12))
def test_policies_sharing_one_column_set_change_no_bit(instance, policies):
    """Policies reduced from one set, in any order and with repeats, read
    every tally field as a fresh set and the reference do."""
    shared = _ColumnSet(*instance, 0)
    for policy in policies:
        got = _reduce(shared, policy)
        _assert_same_tally(got, _reduce(_ColumnSet(*instance, 0), policy))
        _assert_same_tally(got, _repeated_reference(instance, policy))


def _curve_instance(rng, n):
    """Times from 0 to 11 around a grid from 1.5 to 9.5, with curves rounded
    to 0.1 so that step lookups and rank relations tie often."""
    times = rng.integers(0, 12, n).astype(float)
    times[:2] = [0.0, 11.0]  # one anchor before the grid, one beyond it
    events = (rng.random(n) < 0.6).astype(int)
    grid = TimeGrid([1.5, 3.0, 4.0, 6.5, 8.0, 9.5])
    probs = np.round(np.sort(rng.random((n, len(grid))), axis=1)[:, ::-1], 1)
    return times, events, SurvivalMatrix(grid=grid, probs=probs)


@st.composite
def _curve_count_instance(draw):
    n = draw(st.integers(1, 30))
    times = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    # Grid points may start at 0 or above it and end before the last time.
    grid = sorted(draw(st.lists(
        st.sampled_from([0.0, 1.5, 3.0, 4.0, 6.5, 8.0, 9.5]), min_size=1, unique=True
    )))
    # Curves on a 0.1 lattice, so values tie and differences sit at the tolerance.
    steps = draw(st.lists(
        st.lists(st.integers(0, 10), min_size=len(grid), max_size=len(grid)),
        min_size=n, max_size=n,
    ))
    probs = np.sort(np.array(steps) / 10, axis=1)[:, ::-1]
    sm = SurvivalMatrix(grid=TimeGrid(grid), probs=probs)
    return np.array(times, float), np.array(events), sm


def _assert_curve_counts_equal_dense_reference(times, events, sm):
    ds = SurvivalDataset(times=times, events=events)
    for tol in (0.0, 0.1, 0.25):
        cells = _curve_cells_once(times, events, *_curves(sm), tol)
        expected, beyond = dense_curve_counts(times, events, sm, tol)
        assert cells.dtype == np.int64
        assert np.array_equal(_cases(cells, events), expected)
        draw = _Scorer(ds, curves=_curves(sm)).draw()
        counts, scored_beyond = draw._counts_for(True, tol)
        assert np.array_equal(counts, expected)
        assert scored_beyond == beyond


@pytest.mark.parametrize("n", [2, 17, 90, 1100])  # 1100 anchors span three blocks
def test_curve_counts_equal_dense_reference(n):
    times, events, sm = _curve_instance(np.random.default_rng(n), n)
    _assert_curve_counts_equal_dense_reference(times, events, sm)
    ds = SurvivalDataset(times=times, events=events)
    for tol in (0.0, 0.1, 0.25):
        _, tally = concordance_td(ds, sm, ADJ_ANTOLINI.replace(tie_tolerance=tol))
        assert tally.anchors_beyond_grid == dense_curve_counts(times, events, sm, tol)[1]
    assert np.any(times < sm.grid.points[0]) and tally.anchors_beyond_grid > 0


@settings(max_examples=150, deadline=None)
@given(_curve_count_instance())
def test_curve_counts_equal_dense_reference_on_drawn_instances(instance):
    _assert_curve_counts_equal_dense_reference(*instance)


def _curve_cells_peak_per_pair(mult_of):
    """Traced peak of one ``_curve_cells`` call at n = 1000 on 356 columns,
    in bytes per pair of its largest block, with multiplicities ``mult_of(rng, n)``."""
    rng = np.random.default_rng(3)
    n = 1000
    times = rng.integers(1, 200, n).astype(float)
    events = (rng.random(n) < 0.6).astype(int)
    points = np.linspace(0.0, 150.0, 356)
    probs = np.sort(rng.random((n, points.size)), axis=1)[:, ::-1].copy()
    mult = mult_of(rng, n)
    _curve_cells(times, events, points, probs, 0.0, mult)  # warm up imports and caches
    tracemalloc.start()
    try:
        _curve_cells(times, events, points, probs, 0.0, mult)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = int(np.clip(engine._BLOCK_CELL_BUDGET // n, 8, 512))
    return peak / (block * n)


def test_curve_cells_peak_memory_per_pair():
    """The curve producer's traced peak stays under 24 bytes per pair of its
    largest block with multiplicities: cell codes are int8, and one block's
    key and partner weights are freed before the next block's values are made."""
    assert _curve_cells_peak_per_pair(lambda rng, n: rng.integers(1, 4, n)) < 24


def test_curve_cells_peak_memory_per_pair_of_the_data_itself():
    """With every subject taken once the count takes no per-pair weights, so
    the traced peak stays under 14 bytes per pair of the largest block."""
    assert _curve_cells_peak_per_pair(lambda rng, n: np.ones(n, dtype=np.int64)) < 14


def _assert_every_partner_once(cells, events):
    n = events.size
    assert cells.shape == (n, 18)
    assert cells.min() >= 0
    # Cells count every partner, the anchor itself included, and the anchor
    # lands in its own (tied, delta_i, tied) cell (sign + 1) * 6 + delta_j * 3 + rel.
    assert np.all(cells.sum(axis=1) == n)
    assert np.all(cells[np.arange(n), 6 + 3 * events + 1] >= 1)
    # Mapped to cases, the self-pair is gone.
    cases = _cases(cells, events)
    assert cases.min() >= 0
    assert np.all(cases.sum(axis=1) == n - 1)


def test_case_counts_cover_every_partner_once():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ds, risks = random_instance(rng, n_max=80, tie_rich=True)
        sm = _tied_curves(rng, ds)
        for tol in (0.0, 0.1):
            cells = _curve_cells_once(ds.times, ds.events, *_curves(sm), tol)
            _assert_every_partner_once(cells, ds.events)
            cells = _scalar_cells(ds.times, ds.events, risks, tol)
            _assert_every_partner_once(cells, ds.events)
    # The sorted producer is affordable at sizes the dense pass was not.
    n = 5000
    times = rng.integers(1, 300, n).astype(float)
    events = (rng.random(n) < 0.6).astype(int)
    risks = np.round(rng.normal(size=n), 2)
    risks[::5] += 5e-9
    for tol in (0.0, 1e-8, 0.1):
        _assert_every_partner_once(_scalar_cells(times, events, risks, tol), events)


def test_brute_force_guard():
    ds = SurvivalDataset(times=np.arange(1.0, 2002.0), events=np.ones(2001, int))
    with pytest.raises(InputError, match="limited"):
        brute_force_oracle(ds, np.zeros(2001), HARRELL)


# --- time-dependent variant ----------------------------------------------


def _pair_matrix(s_i, s_j):
    grid = TimeGrid([0.0, 10.0])
    return SurvivalMatrix(grid=grid, probs=[[s_i, s_i], [s_j, s_j]])


def test_td_tied_time_both_events_tied_curves():
    # Tied times, both events, tied survival: excluded by the plain variant,
    # comparable with full credit by the adjusted one.
    ds = SurvivalDataset(times=[5.0, 5.0], events=[1, 1])
    sm = _pair_matrix(0.4, 0.4)
    with pytest.raises(ComputationError):
        concordance_td(ds, sm, ANTOLINI)
    est, tally = concordance_td(ds, sm, ADJ_ANTOLINI)
    assert tally.case_counts["5C"] == 2
    assert est == 1.0


def test_td_censored_anchor_ranked_safer_gets_credit():
    # Tied times, anchor censored, its survival higher (ranked less risky).
    ds = SurvivalDataset(times=[5.0, 5.0], events=[0, 1])
    sm = _pair_matrix(0.8, 0.3)
    est, tally = concordance_td(ds, sm, ADJ_ANTOLINI)
    assert tally.case_counts["7B"] == 1 and tally.case_counts["6A"] == 1
    assert est == 1.0
    # The plain variant keeps only the event-anchored orientation: the
    # censored-anchor pair is still counted but carries no weight.
    _, tally_plain = concordance_td(ds, sm, ANTOLINI)
    assert tally_plain.case_comparable["7B"] == 0.0
    assert tally_plain.denominator == 1.0


def test_td_plain_variant_gives_no_credit_to_tied_curves():
    ds = SurvivalDataset(times=[2.0, 5.0], events=[1, 1])
    sm = _pair_matrix(0.4, 0.4)
    est, tally = concordance_td(ds, sm, ANTOLINI)
    assert tally.case_counts["1C"] == 1
    assert est == 0.0
    est_adj, _ = concordance_td(ds, sm, ADJ_ANTOLINI)
    assert est_adj == 0.5


def test_td_equals_rmst_ranking_for_noncrossing_curves():
    rng = np.random.default_rng(31)
    grid = TimeGrid(np.arange(0.0, 30.0))
    n = 40
    hazards = rng.uniform(0.02, 0.4, n)
    probs = np.exp(-np.outer(hazards, grid.points))
    sm = SurvivalMatrix(grid=grid, probs=probs)
    # Keep anchor times at or past the first positive grid point: below it the
    # step lookup lands at t=0 where every curve is 1 and all ranks tie.
    times = np.round(rng.exponential(8.0, n), 1) + 1.0
    ds = SurvivalDataset(times=times, events=np.ones(n, int))
    td, _ = concordance_td(ds, sm, ANTOLINI)
    scalar, _ = concordance(ds, neg_rmst(sm, 30.0), HARRELL)
    assert td == pytest.approx(scalar, abs=1e-12)


def test_td_matches_naive_reference_on_randoms():
    """Slow per-pair reference with explicit step lookups, distinct from the
    blockwise engine path; covers both published variants, a custom case
    table, a tie tolerance and truncation."""
    rng = np.random.default_rng(63)
    policies = [
        ANTOLINI,
        ADJ_ANTOLINI,
        tie_weighted_policy(1.0, 0.5, tie_tolerance=0.05),
        ADJ_ANTOLINI.replace(truncation=Truncation("value", 6.0)),
        ANTOLINI.replace(truncation=Truncation("max_uncensored")),
        tie_weighted_policy(0.0, 0.0, final_fold="max_with_complement"),
    ]
    for trial in range(36):
        n = int(rng.integers(3, 35))
        m = int(rng.integers(2, 10))
        grid = np.sort(rng.uniform(0.0, 20.0, m)) + np.arange(m) * 1e-9
        probs = np.sort(rng.random((n, m)), axis=1)[:, ::-1]
        if (trial // len(policies)) % 2 == 0:
            probs[: n // 2] = probs[0]  # force tied curves for every policy
        sm = SurvivalMatrix(grid=TimeGrid(grid), probs=probs)
        times = np.round(rng.exponential(8.0, n), 0)
        events = rng.integers(0, 2, n)
        ds = SurvivalDataset(times=times, events=events)
        policy = policies[trial % len(policies)]
        try:
            expected = td_brute_force_oracle(ds, sm, policy)
        except ComputationError:
            with pytest.raises(ComputationError):
                concordance_td(ds, sm, policy)
            continue
        est, _ = concordance_td(ds, sm, policy)
        assert est == pytest.approx(expected, abs=1e-12)


def test_td_flags_anchors_beyond_grid():
    grid = TimeGrid([0.0, 1.0])
    sm = SurvivalMatrix(grid=grid, probs=[[1.0, 0.2], [1.0, 0.9]])
    ds = SurvivalDataset(times=[5.0, 7.0], events=[1, 1])
    est, tally = concordance_td(ds, sm, ANTOLINI)
    assert tally.anchors_beyond_grid == 2
    # Both anchors evaluate at the last grid point, where the earlier-failing
    # subject has the smaller survival value.
    assert est == 1.0


# --- decomposition ---------------------------------------------------------


def test_decompose_without_tied_times_is_base_estimator(four_subjects):
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    risks = [3.0, 1.0, 2.0]
    est, tally = concordance(ds, risks, HARRELL)
    rep = decompose(tally)
    assert rep.alpha == 1.0
    assert rep.tied_time_concordant is None
    assert rep.recombined == pytest.approx(est, abs=1e-15)


def test_decompose_without_tied_predictions_has_zero_tie_shares():
    ds = SurvivalDataset(times=[1.0, 2.0, 2.0], events=[1, 1, 0])
    risks = [3.0, 1.0, 2.0]
    pol = tie_weighted_policy(1.0, 0.5)
    est, tally = concordance(ds, risks, pol)
    rep = decompose(tally)
    assert rep.strict_tied_predictions == 0.0
    assert rep.tied_time_tied_predictions == 0.0
    assert rep.recombined == pytest.approx(est, abs=1e-12)


def test_decompose_four_subject_full_identity(four_subjects):
    ds, risks = four_subjects
    pol = tie_weighted_policy(1.0, 0.5)
    est, tally = concordance(ds, risks, pol)
    rep = decompose(tally)
    assert rep.recombined == pytest.approx(est, abs=1e-12)
    assert 0.0 < rep.alpha < 1.0


def test_decompose_identity_on_tie_rich_randoms():
    rng = np.random.default_rng(97)
    checked = 0
    for _ in range(40):
        ds, risks = random_instance(rng, n_max=60, tie_rich=True)
        for omega_o in (0.0, 1.0):
            for omega_p in (0.0, 0.5):
                pol = tie_weighted_policy(omega_o, omega_p)
                try:
                    est, tally = concordance(ds, risks, pol)
                except ComputationError:
                    continue
                rep = decompose(tally)
                assert rep.recombined == pytest.approx(est, abs=1e-12)
                checked += 1
    assert checked > 50


def test_decompose_rejects_foreign_tallies():
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    pol = tie_weighted_policy(0.0, 0.5, weight_scheme="uno_squared")
    _, tally = concordance(ds, [2.0, 1.0], pol)
    with pytest.raises(InputError, match="uniform"):
        decompose(tally)
    # survmetrics' table half-credits discordant tied-time pairs, and a case
    # 1C left out carries a credit that no tie-weighted policy grants.
    survmetrics = get_profiles(["survmetrics"])[0].policy
    excluded_1c = ConcordancePolicy({**STRICT_PAIRS, PairCase.C1C: (0.0, 5.0)})
    for pol in (survmetrics, excluded_1c):
        _, foreign = concordance(ds, [2.0, 1.0], pol)
        with pytest.raises(InputError, match="not produced by a tie-weighted policy"):
            decompose(foreign)
    # A folded estimate is max(C, 1 - C), which the blocks do not recombine to.
    folded = tie_weighted_policy(1.0, 0.5, final_fold="max_with_complement")
    ds4 = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0], events=[1, 1, 1, 0])
    estimate, tally = concordance(ds4, [0.1, 0.2, 0.3, 0.4], folded)
    assert estimate == 1.0
    with pytest.raises(InputError, match="unfolded estimates only"):
        decompose(tally)
    # A hand-made tally with no pairs has no blocks to split.
    empty = PairTally({}, {}, {}, 0.0, 0.0, 0, 0, tie_weighted_policy(1.0, 0.5), None)
    with pytest.raises(ComputationError, match="no comparable pairs"):
        decompose(empty)


def test_decompose_ignores_credits_of_excluded_cases():
    # A profile file keeps comparable cases only, so omega_o = 0 loses the
    # omega_p credit of the excluded case 6C; the reloaded tally still
    # decomposes, to the same report.
    profile = Profile("ignore_tied_times", "C", tie_weighted_policy(0.0, 0.5))
    loaded = profile_from_dict(profile_to_dict(profile))
    assert loaded.policy.case_table[PairCase.C6C] != profile.policy.case_table[PairCase.C6C]
    ds = SurvivalDataset(times=[1.0, 1.0, 2.0, 3.0, 3.0], events=[1, 0, 1, 1, 0])
    risks = [2.0, 2.0, 1.0, 1.0, 0.0]
    reports = [decompose(concordance(ds, risks, p.policy)[1]) for p in (profile, loaded)]
    assert reports[0] == reports[1]
    assert reports[0].omega_p == 0.5 and reports[0].strict_tied_predictions > 0


# --- properties --------------------------------------------------------------


@st.composite
def _permuted_instance(draw):
    n = draw(st.integers(2, 25))
    times = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    risks = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    return (
        SurvivalDataset(times=np.array(times, float), events=events),
        np.array(risks, float),
        np.array(perm),
    )


def _assert_permutation_invariant(score, ds, ranks, perm, take):
    try:
        est, tally = score(ds, ranks)
    except ComputationError:
        with pytest.raises(ComputationError):
            score(ds.subset(perm), take(ranks, perm))
        return
    est_p, tally_p = score(ds.subset(perm), take(ranks, perm))
    assert tally_p.case_counts == tally.case_counts
    assert est_p == est


@settings(max_examples=60, deadline=None)
@given(_permuted_instance(), st.sampled_from([HARRELL, tie_weighted_policy(1.0, 0.5)]))
def test_concordance_is_invariant_under_subject_permutation(instance, policy):
    ds, risks, perm = instance
    _assert_permutation_invariant(
        lambda d, r: concordance(d, r, policy), ds, risks, perm, lambda r, p: r[p]
    )


@settings(max_examples=60, deadline=None)
@given(_permuted_instance(), st.sampled_from([ANTOLINI, ADJ_ANTOLINI]))
def test_concordance_td_is_invariant_under_subject_permutation(instance, policy):
    ds, risks, perm = instance
    # Curves that cross: each subject's survival falls at its own rate and
    # starts from a risk-dependent level.
    grid = TimeGrid(np.arange(0.0, 7.0, 1.5))
    level = 1.0 - (risks - risks.min()) / 10.0
    rate = np.linspace(0.05, 0.5, ds.n)
    sm = SurvivalMatrix(grid=grid, probs=level[:, None] * np.exp(-np.outer(rate, grid.points)))
    _assert_permutation_invariant(
        lambda d, m: concordance_td(d, m, policy), ds, sm, perm,
        lambda m, p: SurvivalMatrix(grid=m.grid, probs=m.probs[p]),
    )


@settings(max_examples=60, deadline=None)
@given(
    _permuted_instance(),
    st.sampled_from([p.policy for p in get_profiles() if not p.requires_matrix]),
)
def test_strictly_monotone_risk_transform_changes_nothing(instance, policy):
    ds, risks, _ = instance
    policy = policy.replace(tie_tolerance=0.0, g_source="test_set")
    try:
        est, tally = concordance(ds, risks, policy)
    except ComputationError:
        return
    est_t, tally_t = concordance(ds, np.exp(risks) + 3.0 * risks, policy)
    assert tally_t.case_counts == tally.case_counts
    assert est_t == est


@settings(max_examples=60, deadline=None)
@given(_permuted_instance(), st.sampled_from([0.0, 1.0]))
def test_folded_estimate_is_symmetric_under_risk_reversal(instance, omega_o):
    ds, risks, _ = instance
    folded = tie_weighted_policy(omega_o, 0.5, final_fold="max_with_complement")
    try:
        est, _ = concordance(ds, risks, folded)
    except ComputationError:
        return
    assert est >= 0.5
    assert concordance(ds, -risks, folded)[0] == pytest.approx(est, abs=1e-12)


# 1.28 - 1.18 > 0.1 holds in floating point, but 1.18 < 1.28 - 0.1 does not.
_TRAP = (1.28, 1.18)
_BIG = 1.7e308  # differences between +-_BIG overflow to +-inf


@st.composite
def _scalar_count_instance(draw):
    n = draw(st.integers(1, 30))
    times = draw(st.one_of(
        st.just([4] * n), st.lists(st.integers(0, 5), min_size=n, max_size=n)
    ))
    events = draw(st.one_of(
        st.just([0] * n), st.just([1] * n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    ))
    lattice = draw(st.one_of(
        st.just([2] * n), st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    ))
    nudges = draw(st.lists(st.sampled_from([0.0, 5e-9, -5e-9]), min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.05, 0.1, 1e12, 1e300, _BIG / 4]))
    risks = np.array(lattice, float) * scale + np.array(nudges)
    if n >= 2 and draw(st.booleans()):
        risks[:2] = _TRAP
    return np.array(times, float), np.array(events), risks


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(_scalar_count_instance())
@example((np.array([1.0]), np.array([1]), np.array([0.3])))
@example((np.array([1.0, 1.0, 2.0]), np.array([1, 0, 1]), np.array([0.0, -0.0, 5e-9])))
@example((np.array([1.0, 2.0]), np.array([1, 0]), np.array(_TRAP)))
@example((np.array([2.0, 2.0, 2.0]), np.array([1, 0, 1]), np.array([-_BIG, _BIG, 0.0])))
@example((np.array([1.0, 1.0]), np.array([0, 1]), np.array([_BIG, -_BIG])))
@example((np.full(6, 3.0), np.array([1, 1, 0, 0, 1, 0]), np.full(6, 0.7)))
@example((np.arange(5.0), np.zeros(5, int), np.array([1.0, 1.0, 2.0, 1.0, 0.0])))
@example((np.arange(5.0), np.ones(5, int), np.array([0.4, 1.28, 1.18, 1.18, 5e-9])))
def test_sorted_scalar_counts_equal_dense_reference(instance):
    times, events, risks = instance
    assert _TRAP[0] - _TRAP[1] > 0.1 and not _TRAP[1] < _TRAP[0] - 0.1
    for tol in (0.0, 1e-8, 0.1):
        sorted_counts = _cases(_scalar_cells(times, events, risks, tol), events)
        with np.errstate(over="ignore"):  # the dense reference subtracts +-_BIG
            dense = dense_scalar_counts(times, events, risks, tol)
        assert sorted_counts.dtype == dense.dtype == np.int64
        assert np.array_equal(sorted_counts, dense)


@pytest.mark.filterwarnings("error")
def test_overflowing_risk_differences_score_without_warnings():
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    for tol in (0.0, 0.1):
        est, tally = concordance(ds, [_BIG, -_BIG], HARRELL.replace(tie_tolerance=tol))
        assert est == 1.0 and tally.numerator == tally.denominator == 1.0


def _copies(mult):
    """Positions of the repeated rows, and of each drawn subject's first copy there."""
    idx = np.repeat(np.arange(mult.size), mult)
    return idx, np.searchsorted(idx, np.flatnonzero(mult))


_MULTIPLICITIES = st.lists(st.integers(0, 4), min_size=30, max_size=30)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(_scalar_count_instance(), _MULTIPLICITIES)
@example((np.full(6, 3.0), np.array([1, 1, 0, 0, 1, 0]), np.full(6, 0.7)), [2, 0, 3] * 10)
@example((np.arange(5.0), np.ones(5, int), np.array([0.4, 1.28, 1.18, 1.18, 5e-9])),
         [0, 4, 1, 0, 2] * 6)
# One subject drawn far more often than the strategy's multiplicities reach.
@example((np.full(6, 3.0), np.array([1, 1, 0, 0, 1, 0]),
          np.array([0.7, 0.7, 0.6, 0.8, 0.7, 0.7])), [2, 25, 0, 1, 0, 2])
def test_scalar_counts_read_from_multiplicities_equal_the_repeated_data(instance, mult):
    """Counts read from the multiplicities of a draw equal the counts of the
    drawn rows themselves, for every subject drawn, at the first of its copies."""
    times, events, risks = instance
    mult = np.array(mult[:times.size])
    idx, first = _copies(mult)
    drawn = mult > 0
    for tol in (0.0, 1e-8, 0.1):
        cells = _scalar_read(_scalar_build(times, events, risks, tol), mult)
        with np.errstate(over="ignore"):  # the dense reference subtracts +-_BIG
            dense = dense_scalar_counts(times[idx], events[idx], risks[idx], tol)
        assert np.array_equal(_cases(cells[drawn], events[drawn]), dense[first])


_HEAVY_CURVES = (
    np.array([1.0, 1.0, 2.0, 4.0, 4.0, 9.0]),
    np.array([1, 0, 1, 1, 0, 1]),
    SurvivalMatrix(grid=TimeGrid([0.0, 3.0, 8.0]), probs=np.array([
        [1.0, 0.7, 0.7], [0.9, 0.7, 0.5], [0.9, 0.7, 0.5],
        [1.0, 0.6, 0.3], [0.8, 0.8, 0.1], [0.7, 0.7, 0.7],
    ])),
)


@settings(max_examples=150, deadline=None)
@given(_curve_count_instance(), _MULTIPLICITIES)
@example(_HEAVY_CURVES, [2, 25, 0, 1, 0, 2])
def test_curve_counts_read_from_multiplicities_equal_the_repeated_data(instance, mult):
    times, events, sm = instance
    mult = np.array(mult[:times.size])
    idx, first = _copies(mult)
    drawn = mult > 0
    repeated = SurvivalMatrix(grid=sm.grid, probs=sm.probs[idx])
    for tol in (0.0, 0.1, 0.25):
        cells = _curve_cells(times, events, *_curves(sm), tol, mult)
        assert not cells[~drawn].any()
        dense, _ = dense_curve_counts(times[idx], events[idx], repeated, tol)
        assert np.array_equal(_cases(cells[drawn], events[drawn]), dense[first])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(_scalar_count_instance(), _curve_count_instance(), _MULTIPLICITIES)
@example((np.full(6, 3.0), np.array([1, 1, 0, 0, 1, 0]), np.full(6, 0.7)),
         _HEAVY_CURVES, [2, 25, 0, 1, 0, 2] * 5)
def test_counts_scale_exactly_with_the_multiplicities(scalar, curves, mult):
    """A draw taken k times over has k times the cells, however large k is:
    no dense reference is needed to check multiplicities up to 2**20."""
    times, events, risks = scalar
    m = np.array(mult[:times.size])
    for tol in (0.0, 0.1):
        index = _scalar_build(times, events, risks, tol)
        once = _scalar_read(index, m)
        for k in (3, 1000, 1 << 20):
            assert np.array_equal(_scalar_read(index, k * m), k * once)
    times, events, sm = curves
    m = np.array(mult[:times.size])
    for tol in (0.0, 0.1):
        once = _curve_cells(times, events, *_curves(sm), tol, m)
        for k in (3, 1000, 1 << 20):
            scaled = _curve_cells(times, events, *_curves(sm), tol, k * m)
            assert np.array_equal(scaled, k * once)
