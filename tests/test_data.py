import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from survconcord import (
    BootstrapSpec,
    ConcordancePolicy,
    InputError,
    PairCase,
    Profile,
    RankRelation,
    StepFunction,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    TransformSpec,
    Truncation,
    UniformQuantileCensoring,
    WeibullCensoring,
    WeibullPHParams,
    assemble,
    bootstrap_ci,
    classify_pair,
    concordance,
    concordance_td,
    decompose,
    expected_mortality,
    generate_censoring,
    generate_event_times,
    get_profiles,
    interpolate,
    ipcw_weights,
    km_fit,
    neg_rmst,
    oracle_cindex,
    profile_from_dict,
    profile_to_dict,
    risk_at_time,
    run_multiverse,
    subseed,
    tie_weighted_policy,
)
from survconcord.data import MONOTONICITY_TOLERANCE, as_risk_array
from survconcord.engine import STRICT_PAIRS
from survconcord.profiles import policy_from_dict

from oracle import normalized_reference

GREATER, LESS, TIED = RankRelation.GREATER, RankRelation.LESS, RankRelation.TIED
ALL_RELS = (GREATER, LESS, TIED)


def test_known_case_labels():
    assert classify_pair(1, 1, 2, 1, GREATER) is PairCase.C1A
    assert classify_pair(1, 1, 2, 1, LESS) is PairCase.C1B
    assert classify_pair(1, 1, 2, 0, TIED) is PairCase.C2C
    assert classify_pair(3, 1, 3, 0, TIED) is PairCase.C6C
    assert classify_pair(3, 1, 3, 1, GREATER) is PairCase.C5A
    assert classify_pair(3, 0, 3, 1, LESS) is PairCase.C7B
    assert classify_pair(1, 0, 2, 1, GREATER) is PairCase.C3
    assert classify_pair(1, 0, 2, 0, GREATER) is PairCase.C4
    # Both censored with tied times: excluded for everyone, regardless of rank.
    for rel in ALL_RELS:
        assert classify_pair(5, 0, 5, 0, rel) is PairCase.C8


def test_classification_is_total():
    seen = set()
    for ti, tj in ((1.0, 2.0), (2.0, 2.0), (3.0, 2.0)):
        for di in (0, 1):
            for dj in (0, 1):
                for rel in ALL_RELS:
                    seen.add(classify_pair(ti, di, tj, dj, rel))
    assert seen == set(PairCase)


def test_swapped_pairs_never_double_counted():
    """For distinct times, the swap of a comparable (1x/2x) pair lands in {3, 4}."""
    comparable = {
        PairCase.C1A, PairCase.C1B, PairCase.C1C,
        PairCase.C2A, PairCase.C2B, PairCase.C2C,
    }
    swap_rel = {GREATER: LESS, LESS: GREATER, TIED: TIED}
    for di in (0, 1):
        for dj in (0, 1):
            for rel in ALL_RELS:
                fwd = classify_pair(1.0, di, 2.0, dj, rel)
                back = classify_pair(2.0, dj, 1.0, di, swap_rel[rel])
                if fwd in comparable:
                    assert back in (PairCase.C3, PairCase.C4)
                else:
                    assert fwd in (PairCase.C3, PairCase.C4)


def test_dataset_rejects_bad_times_and_events():
    ok = SurvivalDataset(times=[1.0, 2.0], events=[1, 0], subject_ids=("a", "b"))
    assert ok.events.tolist() == [1, 0]
    bad = [
        (dict(times=[np.nan, 1.0, 2.0], events=[1, 1, 1]), "non-finite time"),
        (dict(times=[1.0, np.inf, 2.0], events=[1, 1, 1]), "non-finite time"),
        (dict(times=[-1.0, 1.0, 2.0], events=[1, 1, 1]), "negative time"),
        (dict(times=[1.0, 2.0, 3.0], events=[1, 2, 0]), "non-binary event"),
        (dict(times=[1.0, 2.0, 3.0], events=[1, 0.7, 0]), "non-binary event"),
        (dict(times=[1.0, 2.0, 3.0], events=[1, -1, 0]), "non-binary event"),
        (dict(times=[1.0, 2.0, 3.0], events=[1, np.nan, 0]), "non-binary event"),
    ]
    for kwargs, message in bad:
        with pytest.raises(InputError, match=message):
            SurvivalDataset(**kwargs)


def test_bad_datasets_never_reach_the_estimator():
    # Each of these used to score (1.0 for the bad times), fail deep inside
    # numpy (event 2) or silently truncate (event 0.7 read as 0).
    harrell = tie_weighted_policy(0.0, 0.0)
    for times, events in (
        ([np.nan, 1.0, 2.0], [1, 1, 1]),
        ([-1.0, 1.0, 2.0], [1, 1, 1]),
        ([1.0, 2.0, 3.0], [1, 2, 0]),
        ([1.0, 2.0, 3.0], [1, 0.7, 0]),
    ):
        with pytest.raises(InputError):
            concordance(SurvivalDataset(times=times, events=events), [3.0, 2.0, 1.0], harrell)


def test_covariate_dimension_mismatch_reported():
    with pytest.raises(InputError, match="covariates must be a rectangular"):
        SurvivalDataset(
            times=[1.0, 2.0], events=[1, 0], covariates=[[1.0, 2.0, 3.0], [1.0, 2.0]]
        )
    with pytest.raises(InputError, match="aligned"):
        SurvivalDataset(times=[1.0, 2.0], events=[1, 0], covariates=[[0.5]])
    with pytest.raises(InputError, match="times must be a rectangular"):
        SurvivalDataset(times=[1.0, "soon"], events=[1, 0])


def test_dataset_rejects_non_finite_covariates():
    SurvivalDataset(times=[1.0, 2.0], events=[1, 0], covariates=[[0.5], [1.5]])
    with pytest.raises(InputError, match="non-finite"):
        SurvivalDataset(times=[1.0, 2.0], events=[1, 0], covariates=[[0.5], [np.nan]])


def test_dataset_structure_checks():
    with pytest.raises(InputError):
        SurvivalDataset(times=[1.0, 2.0], events=[1])
    with pytest.raises(InputError):
        SurvivalDataset(times=[1.0], events=[1], subject_ids=("a", "b"))
    for ids in ("ab", b"ab", np.array("ab"), np.array([["a"], ["b"]]), [["a"], "b"], 5):
        with pytest.raises(InputError, match="subject_ids must be a 1-d sequence"):
            SurvivalDataset(times=[1.0, 2.0], events=[1, 0], subject_ids=ids)
    for ids, stored in (
        (np.array(["a", "b"]), ("a", "b")),
        ([1, 2], ("1", "2")),
        ([], ("0", "1")),
    ):
        ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 0], subject_ids=ids)
        assert type(ds.subject_ids) is tuple and ds.subject_ids == stored
        assert all(type(i) is str for i in ds.subject_ids)
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 0])
    assert ds.n == 2 and ds.n_events == 1
    with pytest.raises(ValueError):
        ds.times[0] = 5.0  # arrays are frozen


@pytest.mark.parametrize("indices", [[], [2], [1, 1, 0, 1], [-1, 0]])
def test_subset_gathers_subject_ids(indices):
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 0, 1], subject_ids=("a", "b", "c"))
    sub = ds.subset(np.array(indices, dtype=int))
    assert sub.subject_ids == tuple(ds.subject_ids[i] for i in indices)
    assert sub.times.tolist() == [ds.times[i] for i in indices]


def test_risk_vector_invariants():
    assert as_risk_array([1.0, 2.0], 2).tolist() == [1.0, 2.0]
    with pytest.raises(InputError):
        as_risk_array([1.0, np.nan], 2)
    with pytest.raises(InputError):
        as_risk_array([[1.0, 2.0]], 2)


def test_time_grid_invariants():
    with pytest.raises(InputError):
        TimeGrid([1.0, 1.0])
    with pytest.raises(InputError):
        TimeGrid([-1.0, 2.0])
    for args in ((10.0, np.nan), (np.inf, 1.0), (10.0, 1.0, np.nan)):
        with pytest.raises(InputError, match="must be finite"):
            TimeGrid.regular(*args)
    for args in ((1e30,), (1.0, 1e-300), (1e308, 1e-300, -1e308)):
        with pytest.raises(InputError, match="more points than an array can hold"):
            TimeGrid.regular(*args)
    grid = TimeGrid.regular(10.0, step=2.5)
    assert grid.points.tolist() == [0.0, 2.5, 5.0, 7.5, 10.0]


def test_survival_matrix_clamps_tiny_wiggle_and_rejects_rises():
    grid = TimeGrid([0.0, 1.0, 2.0])
    wiggle = SurvivalMatrix(grid=grid, probs=[[1.0, 0.5, 0.5 + 5e-10]])
    assert wiggle.probs[0, 2] == 0.5  # clamped to nonincreasing
    with pytest.raises(InputError, match="increase over time"):
        SurvivalMatrix(grid=grid, probs=[[1.0, 0.5, 0.6]])
    with pytest.raises(InputError, match="outside"):
        SurvivalMatrix(grid=grid, probs=[[1.2, 0.5, 0.4]])


_TOL = MONOTONICITY_TOLERANCE
_NEAR_BOUNDS = [0.0, -0.0, 1.0, 0.5, 5e-324, -5e-324, -_TOL, -_TOL / 2,
                1.0 + _TOL, 1.0 + _TOL / 2, 1.0 - _TOL / 2, -2 * _TOL, 1.0 + 2 * _TOL]
_BUMPS = [0.0, 0.0, 5e-324, _TOL / 3, _TOL, 2 * _TOL]


@st.composite
def _near_monotone_rows(draw):
    """Nonincreasing rows near [0, 1] with some values bumped up, so that
    rows rise by up to twice the tolerance."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    values = draw(st.lists(
        st.one_of(st.sampled_from(_NEAR_BOUNDS), st.floats(-_TOL, 1.0 + _TOL)),
        min_size=n * m, max_size=n * m))
    probs = np.sort(np.reshape(values, (n, m)), axis=1)[:, ::-1]
    bumps = np.reshape(draw(st.lists(st.sampled_from(_BUMPS), min_size=n * m,
                                     max_size=n * m)), (n, m))
    return np.where(bumps > 0, probs + bumps, probs)


@settings(max_examples=400, deadline=None)
@given(_near_monotone_rows())
@example(np.array([[1.0, -0.0, 0.0, -0.0], [0.5, 0.5, -0.0, -0.0]]))
@example(np.array([[1.0 + _TOL, 0.5, -0.0], [1.0, 0.5, 0.5 + _TOL]]))
@example(np.array([[1.0, 0.5, 0.5 + 2 * _TOL], [0.2, 0.2 + 3 * _TOL, 0.0]]))
def test_matrix_normalization_equals_clamp_and_running_minimum(probs):
    """Skipping the clamp and the running minimum where they change no value
    gives the bits of doing both, and every error message stays."""
    grid = TimeGrid(np.arange(float(probs.shape[1])))
    if probs.min() < -_TOL or probs.max() > 1.0 + _TOL:
        with pytest.raises(InputError, match=r"^survival probabilities outside \[0, 1\]$"):
            SurvivalMatrix(grid, probs)
        return
    rises = np.diff(np.clip(probs, 0.0, 1.0), axis=1)
    if rises.max(initial=0.0) > _TOL:
        rows = np.unique(np.nonzero(rises > _TOL)[0])[:5].tolist()
        with pytest.raises(InputError) as info:
            SurvivalMatrix(grid, probs)
        assert str(info.value) == ("survival rows increase over time beyond tolerance "
                                   f"(worst rise {rises.max():.3e}, rows {rows})")
        return
    want = normalized_reference(probs)
    assert [v.hex() for v in SurvivalMatrix(grid, probs).probs.ravel().tolist()] == \
        [v.hex() for v in want.ravel().tolist()]


_DS = SurvivalDataset(times=[1.0, 2.0, 3.0, 4.0], events=[1, 0, 1, 1])
_GRID = TimeGrid([0.0, 1.0, 2.0])
_SM = SurvivalMatrix(_GRID, [[1.0, 0.5, 0.2]] * 4)
_POLICY = tie_weighted_policy(1.0, 0.5)
_MODEL = WeibullPHParams(1.0, 1.0, [1.0])
_RAGGED = [[1.0], [2.0, 3.0]]
_RISKS = [0.4, 0.3, 0.2, 0.1]


_BAD_INPUTS = {
    # Types check the fields they store.
    "profile-name": (lambda: Profile(5, "C", _POLICY), "name"),
    "profile-notes": (lambda: Profile("x", "C", _POLICY, notes=3), "notes"),
    "profile-requires-tau":
        (lambda: Profile("x", "C", _POLICY, requires_tau="false"), "requires_tau"),
    "profile-policy": (lambda: Profile("x", "C", {}), "policy"),
    "profile-dict-name": (lambda: profile_from_dict({"name": ["a"]}), "name"),
    "policy-tolerance":
        (lambda: policy_from_dict({"tie_tolerance": True}), "tie tolerance"),
    "policy-case-weight":
        (lambda: policy_from_dict({"case_table": {"1A": [True, 1]}}), "case 1A weight"),
    "policy-truncation-value":
        (lambda: policy_from_dict({"truncation": {"mode": "value", "value": "5"}}),
         "truncation value"),
    "model-shape-string": (lambda: WeibullPHParams("2", 1.0, []), "shape"),
    "model-shape-bool": (lambda: WeibullPHParams(True, 1.0, []), "shape"),
    "model-scale-none": (lambda: WeibullPHParams(1.0, None, []), "scale"),
    "model-coefficient-bool":
        (lambda: WeibullPHParams(1.0, 1.0, [1, True]), "coefficient"),
    "model-coefficient-string":
        (lambda: WeibullPHParams(1.0, 1.0, ["0.5"]), "coefficient"),
    "model-coefficients-ragged":
        (lambda: WeibullPHParams(1.0, 1.0, _RAGGED), "coefficient"),
    "censoring-shape": (lambda: WeibullCensoring("1", 1.0, 1.0), "shape"),
    "censoring-scale": (lambda: WeibullCensoring(1.0, True, 1.0), "scale"),
    "censoring-epsilon": (lambda: WeibullCensoring(1.0, 1.0, None), "epsilon"),
    "censoring-beta-age":
        (lambda: WeibullCensoring(1.0, 1.0, 1.0, beta_age="0.5"), "beta_age"),
    "uniform-epsilon": (lambda: UniformQuantileCensoring("0.1"), "epsilon"),
    # Every array enters through one intake.
    "concordance-risks":
        (lambda: concordance(_DS, ["a", "b", "c", "d"], _POLICY), "risk vector"),
    "risks-ragged": (lambda: as_risk_array(_RAGGED, 2), "risk vector"),
    "grid-string": (lambda: TimeGrid(["a"]), "grid"),
    "grid-ragged": (lambda: TimeGrid(_RAGGED), "grid"),
    "matrix-string": (lambda: SurvivalMatrix(_GRID, [["a"]]), "survival probabilities"),
    "matrix-ragged": (lambda: SurvivalMatrix(_GRID, _RAGGED), "survival probabilities"),
    "step-times": (lambda: StepFunction(["a"], [1.0]), "jump_times"),
    "step-values": (lambda: StepFunction([1.0], [None]), "values"),
    "step-ragged": (lambda: StepFunction(_RAGGED, [1.0, 0.5]), "jump_times"),
    "dataset-ragged": (lambda: SurvivalDataset(times=_RAGGED, events=[1, 0]), "times"),
    # Public functions reject bad input before numpy sees it.
    "subset-mask":
        (lambda: _DS.subset(np.array([True, False, True, False])), "subset indices"),
    "subset-floats": (lambda: _DS.subset([0.0, 1.5]), "subset indices"),
    "regular-stop": (lambda: TimeGrid.regular("10"), "grid stop"),
    "regular-step": (lambda: TimeGrid.regular(10.0, step=None), "grid step"),
    "assemble-events": (lambda: assemble(["a"], [1.0]), "event times"),
    "assemble-censoring": (lambda: assemble([1.0], ["a"]), "censoring times"),
    "censoring-event-times":
        (lambda: generate_censoring(UniformQuantileCensoring(0.1), ["a"], None, 0),
         "event times"),
    "censoring-covariates":
        (lambda: generate_censoring(WeibullCensoring(1.0, 1.0, 1.0, age_column=0), [1.0],
                                    [["a"]], 0), "covariates"),
    "linear-predictor": (lambda: _MODEL.linear_predictor([["a"]]), "covariates"),
    "oracle-covariates": (lambda: oracle_cindex(_MODEL, [["a"]], [1.0]), "covariates"),
    "oracle-times": (lambda: oracle_cindex(_MODEL, [[1.0]], ["a"]), "times"),
    "risk-at-time": (lambda: risk_at_time(_SM, "0.5"), "evaluation time"),
    "neg-rmst": (lambda: neg_rmst(_SM, "0.5"), "t_star"),
    "step-evaluate":
        (lambda: StepFunction([1.0], [0.5]).evaluate("a"), "evaluation time"),
    "ipcw-without-g": (lambda: ipcw_weights(None, _DS, "uno_squared"), "StepFunction g"),
    "interpolate-array": (lambda: interpolate(_SM, np.array([0.0, 0.5])), "TimeGrid"),
    "subseed-negative": (lambda: subseed(-1, 0), "seed"),
    "event-times-seed": (lambda: generate_event_times(_MODEL, [[1.0]], "3"), "seed"),
    # Public entry points name the parameter that is not the type they take.
    "concordance-dataset": (lambda: concordance([1, 2], [1.0, 2.0], _POLICY), "ds must be"),
    "concordance-policy":
        (lambda: concordance(_DS, _RISKS, "hmisc"), "policy must be a ConcordancePolicy"),
    "km-dataset": (lambda: km_fit([1, 2]), "ds must be a SurvivalDataset"),
    "ipcw-dataset":
        (lambda: ipcw_weights(km_fit(_DS, "censoring"), [1, 2], "uno_squared"), "ds must be"),
    "td-matrix":
        (lambda: concordance_td(_DS, np.ones((4, 3)), _POLICY), "sm must be a SurvivalMatrix"),
    "multiverse-matrix":
        (lambda: run_multiverse(_DS, matrix=np.ones((4, 3))), "matrix must be a SurvivalMatrix"),
    "multiverse-tau": (lambda: run_multiverse(_DS, risks=_RISKS, tau=5.0), "tau must be"),
    "multiverse-bootstrap":
        (lambda: run_multiverse(_DS, risks=_RISKS, bootstrap=10), "bootstrap must be"),
    "multiverse-transform":
        (lambda: run_multiverse(_DS, matrix=_SM, transform="neg-rmst"), "transform must be"),
    "censoring-mechanism":
        (lambda: generate_censoring("weibull", [1.0], None, 0), "mechanism must be"),
    "decompose-tally": (lambda: decompose("x"), "tally must be a PairTally"),
    "subset-beyond": (lambda: _DS.subset([10]), "subset indices must lie in [-4, 4)"),
    "subset-before": (lambda: _DS.subset([0, -5]), "subset indices must lie in [-4, 4)"),
    "matrix-grid-list":
        (lambda: SurvivalMatrix([0.0, 1.0], [[1.0, 0.5]]), "grid must be a TimeGrid"),
    "multiverse-profile-names":
        (lambda: run_multiverse(_DS, risks=_RISKS, profiles=["hmisc"]), "profiles must be"),
    "interpolate-matrix":
        (lambda: interpolate(np.ones((4, 3)), _GRID), "sm must be a SurvivalMatrix"),
    "risk-at-time-matrix":
        (lambda: risk_at_time(np.ones((4, 3)), 0.5), "sm must be a SurvivalMatrix"),
    "expected-mortality-matrix":
        (lambda: expected_mortality(np.ones((4, 3))), "sm must be a SurvivalMatrix"),
    "neg-rmst-matrix":
        (lambda: neg_rmst(np.ones((4, 3)), 1.0), "sm must be a SurvivalMatrix"),
    "transform-apply-matrix":
        (lambda: TransformSpec("neg-rmst", horizon=1.0).apply(np.ones((4, 3))),
         "sm must be a SurvivalMatrix"),
    "event-times-params":
        (lambda: generate_event_times({"shape": 1.0}, [[1.0]], 0), "params must be"),
    "oracle-params":
        (lambda: oracle_cindex({"shape": 1.0}, [[1.0]], [1.0]), "params must be"),
    "bootstrap-spec":
        (lambda: bootstrap_ci(_DS, len, "x"), "spec must be a BootstrapSpec"),
    "bootstrap-dataset":
        (lambda: bootstrap_ci("x", len, BootstrapSpec(2)), "ds must be a SurvivalDataset"),
    "bootstrap-estimator":
        (lambda: bootstrap_ci(_DS, 5, BootstrapSpec(2)), "estimator must be callable"),
    "bootstrap-empty-dataset":
        (lambda: bootstrap_ci(SurvivalDataset(times=[], events=[]), len,
                              BootstrapSpec(2, sample_size=3)), "cannot draw 3 subjects from none"),
    "resamples-from-none":
        (lambda: list(BootstrapSpec(2, sample_size=3).resamples(0, 1)),
         "cannot draw 3 subjects from none"),
    "resamples-negative":
        (lambda: list(BootstrapSpec(2).resamples(-1, 0)), "n must be a nonnegative integer"),
    "resamples-float":
        (lambda: list(BootstrapSpec(2).resamples(4.0, 0)), "n must be a nonnegative integer"),
    "resamples-bool":
        (lambda: list(BootstrapSpec(2).resamples(True, 0)), "n must be a nonnegative integer"),
    "profiles-extra": (lambda: get_profiles(["hmisc"], extra=[1]), "extra must be a Profile"),
    "profiles-names-string":
        (lambda: get_profiles("hmisc"), "names must be a sequence of profile names"),
    "profile-to-dict": (lambda: profile_to_dict(5), "profile must be a Profile"),
    # Each value a type stores is checked where the type is built.
    "grid-empty": (lambda: TimeGrid([]), "grid must be a non-empty 1-d array"),
    "grid-non-finite": (lambda: TimeGrid([0.0, np.inf]), "grid contains non-finite values"),
    "regular-step-zero": (lambda: TimeGrid.regular(10.0, step=0.0), "grid step must be positive"),
    "regular-stop-before-start":
        (lambda: TimeGrid.regular(1.0, start=5.0), "grid stop precedes start"),
    "matrix-shape": (lambda: SurvivalMatrix(_GRID, [[1.0, 0.5]]), "probs must be (n, 3)"),
    "truncation-mode": (lambda: Truncation("bogus"), "unknown truncation mode 'bogus'"),
    "truncation-value-missing":
        (lambda: Truncation("value"), "truncation value must be a finite number"),
    "truncation-value-unwanted":
        (lambda: Truncation("none", 3.0), "truncation mode 'none' takes no value"),
    "policy-case-8": (lambda: ConcordancePolicy({**STRICT_PAIRS, PairCase.C8: (1.0, 0.5)}),
                      "case 8 cannot be comparable"),
    "policy-weight-scheme": (lambda: ConcordancePolicy(STRICT_PAIRS, weight_scheme="g2"),
                             "unknown weight scheme 'g2'"),
    "policy-g-source": (lambda: ConcordancePolicy(STRICT_PAIRS, g_source="train"),
                        "unknown g_source 'train'"),
    "policy-fold": (lambda: ConcordancePolicy(STRICT_PAIRS, final_fold="min"),
                    "unknown final fold 'min'"),
    "step-shapes": (lambda: StepFunction([1.0, 2.0], [0.5]),
                    "jump_times and values must be 1-d arrays of equal length"),
    "km-target": (lambda: km_fit(_DS, target="death"), "unknown target 'death'"),
    "ipcw-scheme": (lambda: ipcw_weights(km_fit(_DS, "censoring"), _DS, "g2"),
                    "unknown weight scheme 'g2'"),
    "transform-kind": (lambda: TransformSpec("rmst"), "unknown transform 'rmst'"),
    "model-coefficient-inf":
        (lambda: WeibullPHParams(1.0, 1.0, [np.inf]), "coefficients must be finite"),
    "assemble-lengths": (lambda: assemble([1.0, 2.0], [1.0]),
                         "event and censoring time arrays must have equal length"),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_bad_input_is_rejected_by_the_type_that_stores_it(case):
    """Each bad value raises InputError naming its field, never numpy's own
    ValueError or TypeError (InputError subclasses ValueError, so the check
    is on InputError itself)."""
    build, field = _BAD_INPUTS[case]
    with pytest.raises(InputError) as exc:
        build()
    assert field in str(exc.value)


def test_subset_takes_lists_and_negative_positions():
    assert _DS.subset([]).n == 0
    assert _DS.subset([3, -4]).times.tolist() == [4.0, 1.0]


def _layouts(a: np.ndarray) -> list[np.ndarray]:
    """``a`` C-ordered, Fortran-ordered and as a transposed view."""
    return [a, np.asfortranarray(a), np.ascontiguousarray(a.T).T]


def test_results_do_not_depend_on_the_callers_memory_layout():
    # A stored Fortran-ordered copy would add each row sum in another order.
    rng = np.random.default_rng(3)
    grid = TimeGrid(np.arange(1.0, 401.0))
    probs = np.ascontiguousarray(np.sort(rng.uniform(0.01, 1.0, (50, 400)))[:, ::-1])
    params = WeibullPHParams(1.0, 0.01, rng.normal(size=20))
    covariates = rng.normal(size=(200, 20))
    times = rng.uniform(1.0, 10.0, 200)
    results = set()
    for p, x in zip(_layouts(probs), _layouts(covariates)):
        sm = SurvivalMatrix(grid, p)
        ds = SurvivalDataset(times=times, events=np.ones(200, int), covariates=x)
        stored = (sm.probs, interpolate(sm, TimeGrid([0.5, 2.5, 399.5])).probs, ds.covariates)
        assert all(a.flags.c_contiguous for a in stored)
        values = (expected_mortality(sm), neg_rmst(sm, 250.5), risk_at_time(sm, 100.0),
                  params.linear_predictor(x))
        results.add(tuple(v.hex() for v in np.concatenate(values).tolist()))
    assert len(results) == 1
