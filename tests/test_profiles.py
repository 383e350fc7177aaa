import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survconcord import (
    ComputationError,
    InputError,
    Profile,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    Truncation,
    antolini_policy,
    bootstrap_ci,
    concordance,
    concordance_td,
    get_profiles,
    km_fit,
    pec_profile,
    profile_from_dict,
    profile_to_dict,
    run_multiverse,
    tie_weighted_policy,
)
from survconcord import engine
from survconcord.data import PairCase
from survconcord.engine import (
    ALWAYS_EXCLUDED,
    FOLD_IDENTITY,
    FOLD_MAX_COMPLEMENT,
    G_SOURCE_PROVIDED,
    G_SOURCE_TEST_SET,
    TRUNC_MAX_UNCENSORED,
    TRUNC_NONE,
    TRUNC_VALUE,
    ConcordancePolicy,
)
from survconcord.io import canonical_json
from survconcord.engine import WEIGHT_SCHEMES
from survconcord.profiles import (
    BootstrapSpec,
    TransformSpec,
    policy_from_dict,
    policy_to_dict,
)

from golden_tables import (
    GOLDEN_CASE_TABLES,
    GOLDEN_SETTINGS,
    GOLDEN_WEIGHT_SCHEMES,
    PEC_FLAG_TABLE,
)
from oracle import td_brute_force_oracle


def _by_name():
    return {p.name: p for p in get_profiles()}


def test_case_tables_match_published_behaviour():
    profiles = _by_name()
    assert set(profiles) == set(GOLDEN_CASE_TABLES)
    for name, golden in GOLDEN_CASE_TABLES.items():
        policy = profiles[name].policy
        for label, expected in golden.items():
            rule = policy.case_table[PairCase(label)]
            if expected is None:
                assert rule.comparable_weight == 0.0, (name, label)
            else:
                assert (rule.comparable_weight, rule.credit) == expected, (name, label)


def test_weight_schemes_match_published_behaviour():
    profiles = _by_name()
    for name, scheme in GOLDEN_WEIGHT_SCHEMES.items():
        assert profiles[name].policy.weight_scheme == scheme, name


def test_pec_flag_combinations():
    for (toi, tpi, tmi), expected in PEC_FLAG_TABLE.items():
        policy = pec_profile(bool(tpi), bool(toi), bool(tmi)).policy
        for label, rule in expected.items():
            got = policy.case_table[PairCase(label)]
            if rule is None:
                assert got.comparable_weight == 0.0, (toi, tpi, tmi, label)
            else:
                assert (got.comparable_weight, got.credit) == rule, (toi, tpi, tmi, label)
        # Gates on the unambiguous tie cases.
        assert (policy.case_table[PairCase.C1C].comparable_weight > 0) == bool(tpi)
        assert (policy.case_table[PairCase.C5A].comparable_weight > 0) == bool(toi)
        assert policy.case_table[PairCase.C6A].comparable_weight == 1.0


def test_profile_defaults():
    profiles = _by_name()
    assert list(profiles) == list(GOLDEN_SETTINGS)
    for name, golden in GOLDEN_SETTINGS.items():
        p = profiles[name]
        got = (p.family, p.requires_tau, p.policy.tie_tolerance, p.policy.g_source,
               p.policy.truncation.mode, p.policy.final_fold)
        assert got == golden, name
        assert p.policy.truncation.value is None, name
    assert profiles["pycox_ant"].requires_matrix
    with pytest.raises(Exception):
        get_profiles(["not_a_profile"])


def test_repeated_profile_name_rejected():
    mine = dataclasses.replace(get_profiles(["hmisc"])[0], name="mine")
    for names in (["hmisc", "hmisc"], ["mine", "hmisc", "mine"]):
        with pytest.raises(InputError, match=f"profile '{names[0]}' is named more"):
            get_profiles(names, extra=[mine])
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    with pytest.raises(InputError, match="profile 'mine' is named more than once"):
        run_multiverse(ds, risks=[2.0, 1.0], profiles=[mine, mine])


def test_one_shot_iterables_are_read_once():
    names = ["hmisc", "lifelines", "sksurv_ipcw"]
    assert get_profiles(iter(names)) == get_profiles(names)
    assert get_profiles(name for name in names) == get_profiles(names)
    ds = SurvivalDataset(times=[1.0, 2.0, 2.0, 3.0], events=[1, 0, 1, 1])
    risks = [4.0, 3.0, 2.0, 1.0]
    listed = run_multiverse(ds, risks=risks, profiles=get_profiles(names)).to_dict()
    assert [r["name"] for r in listed["results"]] == names
    for profiles in (iter(get_profiles(names)), (p for p in get_profiles(names))):
        assert run_multiverse(ds, risks=risks, profiles=profiles).to_dict() == listed


def test_empty_data_gives_empty_draws_at_the_default_size():
    assert [idx.size for idx in BootstrapSpec(3).resamples(0, 7)] == [0, 0, 0]


def test_taken_extra_profile_name_rejected():
    outx = get_profiles(["hmisc_outx"])[0]
    mine = dataclasses.replace(outx, name="mine")
    assert [p.name for p in get_profiles(None, [mine])] == [
        *(p.name for p in get_profiles()), "mine"
    ]
    for extra in ([dataclasses.replace(outx, name="hmisc")], [mine, mine]):
        taken = extra[-1].name
        for names in (None, ["hmisc"]):
            with pytest.raises(InputError, match=f"profile name '{taken}' is already taken"):
                get_profiles(names, extra=extra)


def test_builtin_profiles_are_built_once_per_process(profile_builds):
    first, second = get_profiles(), get_profiles()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    get_profiles(["hmisc", "pec"])
    ds = SurvivalDataset(times=[1.0, 2.0, 3.0], events=[1, 1, 0])
    run_multiverse(ds, risks=[3.0, 2.0, 1.0])
    assert profile_builds == [p.name for p in first]


def test_hmisc_outx_equals_sksurv_zero_tolerance_on_tie_free_data():
    rng = np.random.default_rng(6)
    ds = SurvivalDataset(
        times=rng.exponential(5.0, 30), events=rng.integers(0, 2, 30)
    )
    risks = rng.normal(size=30)
    outx, sksurv = get_profiles(["hmisc_outx", "sksurv_censored"])
    exact = dataclasses.replace(sksurv, policy=sksurv.policy.replace(tie_tolerance=0.0))
    report = run_multiverse(ds, risks=risks, profiles=[outx, exact])
    a, b = report.results
    assert a.estimate == b.estimate


def test_survival_untruncated_equals_hmisc_on_untied_times():
    rng = np.random.default_rng(16)
    ds = SurvivalDataset(
        times=np.cumsum(rng.uniform(0.5, 2.0, 25)), events=rng.integers(0, 2, 25)
    )
    risks = np.round(rng.normal(size=25), 1)  # tied predictions allowed
    report = run_multiverse(
        ds, risks=risks, profiles=get_profiles(["survival_n", "hmisc"])
    )
    a, b = report.results
    assert a.estimate == b.estimate


def test_multiverse_collapse_without_censoring_or_ties():
    rng = np.random.default_rng(23)
    n = 40
    ds = SurvivalDataset(times=np.cumsum(rng.uniform(0.5, 2.0, n)), events=np.ones(n, int))
    risks = rng.permutation(n).astype(float)
    scalar = [p for p in get_profiles() if not p.requires_matrix]
    report = run_multiverse(
        ds, risks=risks, profiles=scalar, tau=Truncation(mode=TRUNC_NONE)
    )
    values = {r.name: r.estimate for r in report.results}
    assert all(v is not None for v in values.values())
    base = values["hmisc"]
    for name, v in values.items():
        if name.startswith("pysurvival"):
            assert v == max(base, 1.0 - base)
        else:
            assert v == base, name


def test_multiverse_error_cells_do_not_block_others(four_subjects):
    ds, risks = four_subjects
    report = run_multiverse(
        ds, risks=risks, profiles=get_profiles(["pycox_ant", "hmisc", "survc1"])
    )
    assert report.result("pycox_ant").error == "requires a survival matrix"
    assert report.result("survc1").error == "requires an explicit truncation time"
    assert report.result("hmisc").estimate is not None
    with pytest.raises(KeyError):
        report.result("absent")


def test_error_cells_carry_their_profiles_weight_scheme(four_subjects):
    ds, risks = four_subjects
    report = run_multiverse(ds, risks=risks)
    schemes = {p.name: p.policy.weight_scheme for p in get_profiles()}
    assert {r.name for r in report.results if r.error} == {
        "survc1", "pycox_ant", "pycox_adj_ant"}
    assert {r.name: r.weight_scheme for r in report.results} == schemes
    assert report.result("survc1").weight_scheme == "uno_squared"


def test_multiverse_four_subject_tied_time_profiles(four_subjects):
    ds, risks = four_subjects
    report = run_multiverse(
        ds,
        risks=risks,
        profiles=get_profiles(["hmisc_outx", "survival_n"]),
    )
    for r in report.results:
        assert r.estimate == pytest.approx(4 / 6)


def test_multiverse_transform_and_td_inputs():
    grid = TimeGrid(np.arange(0.0, 12.0))
    hazards = np.array([0.5, 0.25, 0.1])
    sm = SurvivalMatrix(grid=grid, probs=np.exp(-np.outer(hazards, grid.points)))
    ds = SurvivalDataset(times=[2.0, 5.0, 9.0], events=[1, 1, 1])
    report = run_multiverse(
        ds,
        matrix=sm,
        profiles=get_profiles(["hmisc", "pycox_ant"]),
        transform=TransformSpec(kind="neg-rmst", horizon=11.0),
    )
    assert report.result("hmisc").estimate == 1.0
    assert report.result("pycox_ant").estimate == 1.0
    # Same request without a transform: scalar profiles get an error cell.
    report2 = run_multiverse(ds, matrix=sm, profiles=get_profiles(["hmisc", "pycox_ant"]))
    assert report2.result("hmisc").error is not None
    assert report2.result("pycox_ant").estimate == 1.0


def test_multiverse_ipcw_workaround_marker():
    rng = np.random.default_rng(33)
    n = 30
    ds = SurvivalDataset(times=rng.exponential(5.0, n), events=rng.integers(0, 2, n))
    risks = rng.normal(size=n)
    report = run_multiverse(ds, risks=risks, profiles=get_profiles(["sksurv_ipcw"]))
    assert report.result("sksurv_ipcw").g_used == "test_set_workaround"
    from survconcord import km_fit

    g = km_fit(ds, "censoring")
    report2 = run_multiverse(
        ds, risks=risks, profiles=get_profiles(["sksurv_ipcw"]), g=g
    )
    assert report2.result("sksurv_ipcw").g_used == "provided"
    assert report2.result("sksurv_ipcw").estimate == report.result("sksurv_ipcw").estimate


def test_multiverse_prefers_explicit_risks_over_transform():
    grid = TimeGrid(np.arange(0.0, 6.0))
    sm = SurvivalMatrix(
        grid=grid, probs=np.exp(-np.outer([0.9, 0.1], grid.points))
    )
    ds = SurvivalDataset(times=[1.0, 4.0], events=[1, 1])
    # Deliberately reversed explicit risks: they win over the matrix reduction.
    report = run_multiverse(
        ds, risks=[0.0, 1.0], matrix=sm, profiles=get_profiles(["hmisc"]),
        transform=TransformSpec(kind="neg-rmst", horizon=5.0),
    )
    assert report.result("hmisc").estimate == 0.0
    # The provenance names a transform only where it was applied.
    assert report.provenance["transform"] is None
    spec = TransformSpec(kind="neg-rmst", horizon=5.0)
    applied = run_multiverse(ds, matrix=sm, profiles=get_profiles(["hmisc"]),
                             transform=spec)
    assert applied.result("hmisc").estimate == 1.0
    assert applied.provenance["transform"] == dataclasses.asdict(spec)
    # Without risks or a matrix no scalar profile scores and no transform applies.
    bare = run_multiverse(ds, profiles=get_profiles(["hmisc"]), transform=spec)
    assert bare.result("hmisc").error == "requires a risk vector or a transform over a matrix"
    assert bare.provenance["transform"] is None


def test_multiverse_explicit_untruncated_tau_satisfies_survc1(four_subjects):
    ds, risks = four_subjects
    report = run_multiverse(
        ds, risks=risks, profiles=get_profiles(["survc1"]),
        tau=Truncation(mode=TRUNC_NONE),
    )
    r = report.result("survc1")
    assert r.error is None and r.estimate is not None and r.tau_used is None


def test_multiverse_transform_failure_becomes_error_cell():
    grid = TimeGrid([0.0, 1.0])
    sm = SurvivalMatrix(grid=grid, probs=[[0.0, 0.0], [0.0, 0.0]])
    ds = SurvivalDataset(times=[1.0, 2.0], events=[1, 1])
    report = run_multiverse(
        ds, matrix=sm, profiles=get_profiles(["hmisc", "pycox_ant"]),
        transform=TransformSpec(kind="expected-mortality"),
    )
    assert "transform failed" in report.result("hmisc").error
    assert report.result("pycox_ant").estimate is not None  # matrix path unaffected


def test_multiverse_at_time_before_the_grid_is_an_error_cell():
    sm = SurvivalMatrix(grid=TimeGrid([10.0, 20.0]), probs=[[0.9, 0.5], [0.8, 0.3]])
    ds = SurvivalDataset(times=[5.0, 15.0], events=[1, 1])
    report = run_multiverse(
        ds, matrix=sm, profiles=get_profiles(["hmisc", "pycox_ant"]),
        transform=TransformSpec(kind="at-time", time=5.0),
    )
    hmisc = report.result("hmisc")
    assert hmisc.estimate is None
    assert hmisc.error.startswith("transform failed: evaluation time must be finite")
    assert report.result("pycox_ant").error is None  # matrix path unaffected


def test_multiverse_bootstrap_intervals():
    n = 30
    ds = SurvivalDataset(times=np.arange(1.0, n + 1), events=np.ones(n, int))
    risks = -np.arange(float(n))  # perfect ranking: zero-variance estimator
    report = run_multiverse(
        ds,
        risks=risks,
        profiles=get_profiles(["hmisc"]),
        bootstrap=BootstrapSpec(n_resamples=25, level=0.95),
        seed=5,
    )
    r = report.result("hmisc")
    assert (r.ci_lower, r.ci_upper) == (1.0, 1.0)


def _td_instance(n=40, seed=3):
    """Random dataset and survival matrix with tied times and crossing curves."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.arange(0.0, 10.0))
    probs = np.sort(rng.random((n, grid.points.size)), axis=1)[:, ::-1]
    ds = SurvivalDataset(
        times=rng.integers(1, 9, n).astype(float), events=rng.integers(0, 2, n)
    )
    return ds, SurvivalMatrix(grid=grid, probs=probs)


def test_profile_round_trip_through_dict():
    ds, sm = _td_instance()
    for profile in get_profiles():
        clone = profile_from_dict(profile_to_dict(profile))
        assert clone.name == profile.name
        assert clone.family == profile.family
        assert clone.requires_tau == profile.requires_tau
        if profile.requires_matrix:
            # A round-tripped distribution profile scores identically.
            got = run_multiverse(ds, matrix=sm, profiles=[clone]).to_dict()
            want = run_multiverse(ds, matrix=sm, profiles=[profile]).to_dict()
            assert got == want
        for case in PairCase:
            a = clone.policy.case_table[case]
            b = profile.policy.case_table[case]
            assert a.comparable_weight == b.comparable_weight
            if b.comparable_weight > 0:
                assert a.credit == b.credit
        assert clone.policy.weight_scheme == profile.policy.weight_scheme
        assert clone.policy.tie_tolerance == profile.policy.tie_tolerance
        assert clone.policy.truncation == profile.policy.truncation
        assert clone.policy.final_fold == profile.policy.final_fold


_WEIGHTS = st.sampled_from([0.0, 0.3, 0.7, 1.0]) | st.floats(0.0, 1e6)
_CREDITS = st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _policies(draw):
    """Policies that set every knob; an excluded case keeps credit 0, because
    the writer drops excluded rows."""
    table = {}
    for case in PairCase:
        weight = 0.0 if case in ALWAYS_EXCLUDED else draw(_WEIGHTS)
        table[case] = (weight, draw(_CREDITS) if weight > 0 else 0.0)
    truncation = draw(st.sampled_from([Truncation(TRUNC_NONE),
                                       Truncation(TRUNC_MAX_UNCENSORED)])
                      | st.floats(1e-300, 1e300).map(lambda v: Truncation(TRUNC_VALUE, v)))
    return ConcordancePolicy(
        case_table=table,
        tie_tolerance=draw(st.sampled_from([0.0, 1e-8, 0.05]) | st.floats(0.0, 1e3)),
        weight_scheme=draw(st.sampled_from(WEIGHT_SCHEMES)),
        g_source=draw(st.sampled_from([G_SOURCE_TEST_SET, G_SOURCE_PROVIDED])),
        truncation=truncation,
        final_fold=draw(st.sampled_from([FOLD_IDENTITY, FOLD_MAX_COMPLEMENT])),
    )


@settings(max_examples=200, deadline=None)
@given(_policies())
def test_policy_schema_round_trips_through_json(policy):
    text = canonical_json(policy_to_dict(policy))
    assert policy_from_dict(json.loads(text)) == policy


def test_schema_keys_left_out_take_the_types_defaults():
    assert policy_from_dict({}) == ConcordancePolicy({})
    assert profile_from_dict({"name": "x"}) == Profile("x", "C", ConcordancePolicy({}))


def test_td_bootstrap_equals_rebuilding_each_matrix():
    ds, sm = _td_instance()
    # A C_td bootstrap scores the same resamples as rebuilding each matrix.
    profile = get_profiles(["pycox_adj_ant"])[0]
    spec = BootstrapSpec(n_resamples=15, sample_size=30)
    report = run_multiverse(ds, matrix=sm, profiles=[profile], bootstrap=spec, seed=5)

    def rebuild_each(i):
        resampled = SurvivalMatrix(grid=sm.grid, probs=sm.probs[i])
        return concordance_td(ds.subset(i), resampled, profile.policy)[0]

    boot = bootstrap_ci(ds, rebuild_each, spec, seed=5)
    got = report.result("pycox_adj_ant")
    assert (got.ci_lower, got.ci_upper) == (boot.lower, boot.upper)
    assert got.failed_resamples == boot.n_failed


def test_td_profile_scores_with_its_own_case_table():
    ds, sm = _td_instance()
    harrell = tie_weighted_policy(0.0, 0.0)
    builtin = get_profiles(["pycox_adj_ant"])[0]
    custom = dataclasses.replace(builtin, name="td_harrell", policy=harrell)
    report = run_multiverse(ds, matrix=sm, profiles=[custom, builtin])
    assert report.provenance["profiles"][0]["policy"] == policy_to_dict(harrell)
    got = report.result("td_harrell")
    assert got.error is None
    assert got.estimate == pytest.approx(td_brute_force_oracle(ds, sm, harrell), abs=1e-12)
    assert got.estimate != report.result("pycox_adj_ant").estimate
    # The custom table excludes every tied-time pair; the builtin one does not.
    tied = [lab for lab in got.per_case if lab[0] in "567"]
    assert tied and all(got.per_case[lab]["comparable"] == 0.0 for lab in tied)


def test_td_profile_from_dict_needs_no_routing_field():
    ds, sm = _td_instance()
    loaded = profile_from_dict({
        "name": "td_adjusted",
        "family": "C_td",
        "policy": policy_to_dict(antolini_policy(adjusted=True)),
    })
    report = run_multiverse(
        ds, matrix=sm, profiles=[loaded] + get_profiles(["pycox_adj_ant"])
    )
    got = report.result("td_adjusted")
    assert got.error is None
    assert got.estimate == report.result("pycox_adj_ant").estimate


def test_tau_override_truncates_td_anchors():
    ds, sm = _td_instance()
    tau = Truncation("value", 3.0)
    profiles = get_profiles(["pycox_ant", "pycox_adj_ant"])
    full = run_multiverse(ds, matrix=sm, profiles=profiles)
    truncated = run_multiverse(ds, matrix=sm, profiles=profiles, tau=tau)
    for profile in profiles:
        r = truncated.result(profile.name)
        assert r.tau_used == 3.0
        expected = td_brute_force_oracle(ds, sm, profile.policy.replace(truncation=tau))
        assert r.estimate == pytest.approx(expected, abs=1e-12)
        assert r.denominator < full.result(profile.name).denominator


@pytest.mark.parametrize("kwargs, message", [
    ({"n_resamples": 0}, "at least one bootstrap resample"),
    ({"level": 1.5}, r"confidence level must lie in \(0, 1\)"),
    ({"level": 0.0}, r"confidence level must lie in \(0, 1\)"),
    ({"sample_size": 0}, "sample size must be positive"),
])
def test_bootstrap_spec_rejected_where_built(kwargs, message):
    with pytest.raises(InputError, match=message):
        BootstrapSpec(**kwargs)


def test_bootstrap_spec_stores_plain_numbers():
    spec = BootstrapSpec(np.int64(5), np.int32(3), np.float32(0.5))
    assert dataclasses.asdict(spec) == {"n_resamples": 5, "sample_size": 3, "level": 0.5}
    assert [type(v) for v in dataclasses.astuple(spec)] == [int, int, float]
    with pytest.raises(InputError, match="confidence level must be a number"):
        BootstrapSpec(5, level=np.True_)


@pytest.mark.parametrize("value", [0.0, -5.0])
def test_non_positive_tau_rejected_where_built(value):
    # Times are >= 0 and an anchor counts only when T_i < tau.
    message = "truncation value must be positive"
    with pytest.raises(InputError, match=message):
        Truncation("value", value)
    d = profile_to_dict(get_profiles(["hmisc_outx"])[0])
    d["policy"]["truncation"] = {"mode": "value", "value": value}
    with pytest.raises(InputError, match=message):
        profile_from_dict(d)


def test_multiverse_rejects_misaligned_matrix():
    ds, risks, sm = _tie_rich(20, seed=3)
    short = SurvivalMatrix(grid=sm.grid, probs=sm.probs[:-1])
    rmst = TransformSpec("neg-rmst", horizon=3.0)
    for kwargs in (dict(risks=risks), dict(transform=rmst)):
        with pytest.raises(InputError, match="survival matrix is not aligned"):
            run_multiverse(ds, matrix=short, **kwargs)


def test_profile_family_rejected_where_built():
    with pytest.raises(InputError, match="unknown estimator family 'C_TD'"):
        Profile(name="x", family="C_TD", policy=antolini_policy())


@pytest.mark.parametrize(
    "kwargs, message",
    [(dict(kind="neg-rmst", horizon=np.inf), "finite horizon > 0, got inf"),
     (dict(kind="neg-rmst", horizon=0.0), "finite horizon > 0, got 0.0"),
     (dict(kind="neg-rmst"), "finite horizon > 0, got None"),
     (dict(kind="at-time", time=-1.0), "finite time >= 0, got -1.0"),
     (dict(kind="at-time", time=np.nan), "finite time >= 0, got nan"),
     (dict(kind="expected-mortality", time=7, horizon=-1),
      "expected-mortality transform takes no time"),
     (dict(kind="at-time", time=1.0, horizon=5.0), "at-time transform takes no horizon"),
     (dict(kind="neg-rmst", time=1.0, horizon=5.0), "neg-rmst transform takes no time")],
    ids=["horizon-inf", "horizon-zero", "horizon-missing", "time-negative", "time-nan",
         "mortality-time", "at-time-horizon", "rmst-time"],
)
def test_transform_spec_rejected_where_built(kwargs, message):
    with pytest.raises(InputError, match=message):
        TransformSpec(**kwargs)
    assert TransformSpec("at-time", time=0.0).time == 0.0


def _tie_rich(n, seed, event_rate=0.7, n_times=None):
    """Dataset with tied times, tied and near-tied risks, and a matrix."""
    rng = np.random.default_rng(seed)
    times = rng.integers(1, n_times or max(3, n // 4), n).astype(float)
    events = (rng.random(n) < event_rate).astype(int)
    risks = np.round(rng.normal(size=n), 1)
    risks[::5] += 5e-9  # tied at tolerance 1e-8, not at 0
    grid = TimeGrid(np.arange(0.0, times.max()))
    hazards = np.exp(rng.normal(size=n))[:, None] * 0.1
    probs = np.minimum.accumulate(np.round(np.exp(-hazards * grid.points), 2), axis=1)
    ds = SurvivalDataset(times=times, events=events)
    return ds, risks, SurvivalMatrix(grid=grid, probs=probs)


def test_multiverse_counts_once_per_rank_source_and_tolerance(monkeypatch):
    ds, risks, sm = _tie_rich(50, seed=8)
    g = km_fit(ds, "censoring")
    calls = {}

    def counting(fn, key):
        def count(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return count

    # The scalar structure is built once per tolerance and read once per
    # draw; curves are counted once per draw; the map from cells to cases runs
    # once per counting pass, and the censoring fit once per draw.
    for name, key in (("_scalar_build", "builds"), ("_scalar_read", "reads"),
                      ("_curve_cells", "reads"), ("_cases", "maps"),
                      ("_km_from_groups", "fits")):
        monkeypatch.setattr(engine, name, counting(getattr(engine, name), key))

    def run(**kwargs):
        calls.update(builds=0, reads=0, maps=0, fits=0)
        report = run_multiverse(ds, risks=risks, matrix=sm, seed=2, **kwargs)
        scored = [r for r in report.results if r.error is None]
        assert len(scored) == 13 and report.result("survc1").error  # no tau
        return calls["builds"], calls["reads"], calls["maps"], calls["fits"]

    # Scalar at tolerance 0 and 1e-8, curves at tolerance 0; one censoring fit.
    assert run() == (2, 3, 3, 1)
    # A resample reads from the same two builds, whatever the number of resamples.
    assert run(bootstrap=BootstrapSpec(4)) == (2, 3 * 5, 3 * 5, 5)
    assert run(bootstrap=BootstrapSpec(9)) == (2, 3 * 10, 3 * 10, 10)
    assert run(g=g) == (2, 3, 3, 0)
    assert run(g=g, bootstrap=BootstrapSpec(4, sample_size=30)) == (2, 3 * 5, 3 * 5, 0)


def test_multiverse_scores_profiles_as_written(monkeypatch):
    """The run's tau and the same-data censoring fit are applied per draw, so
    no policy is rebuilt, and each draw reads its IPCW weights once per
    weight scheme."""
    ds, risks, sm = _tie_rich(50, seed=8)
    profiles = get_profiles()  # the builtins' own policies are built here
    calls = {"policies": 0, "weights": 0}
    post_init = ConcordancePolicy.__post_init__
    ipcw_weights = engine.ipcw_weights

    def building(self):
        calls["policies"] += 1
        post_init(self)

    def weighing(*args):
        calls["weights"] += 1
        return ipcw_weights(*args)

    monkeypatch.setattr(ConcordancePolicy, "__post_init__", building)
    monkeypatch.setattr(engine, "ipcw_weights", weighing)
    report = run_multiverse(ds, risks=risks, matrix=sm, profiles=profiles,
                            tau=Truncation("value", 15.0), bootstrap=BootstrapSpec(4))
    assert all(r.error is None for r in report.results)
    assert report.result("sksurv_ipcw").g_used == "test_set_workaround"
    # Three weight schemes (uniform, uno_squared, pec_product), five draws.
    assert calls == {"policies": 0, "weights": 3 * 5}


def test_multiverse_sums_once_per_column_set(monkeypatch):
    """Policies on a draw share one exact column sum per (rank source,
    tolerance, weight scheme, tau), and uniform sets sum as integers, so the
    12 scalar builtins take one ``_exact_sums`` call per IPCW set and draw."""
    ds, risks, _ = _tie_rich(50, seed=8)
    scalar = [p for p in get_profiles() if not p.requires_matrix]
    assert len(scalar) == 12
    exact_sums = engine._exact_sums
    calls = []

    def summing(*args):
        calls.append(1)
        return exact_sums(*args)

    monkeypatch.setattr(engine, "_exact_sums", summing)
    for bootstrap, draws in ((None, 1), (BootstrapSpec(4), 5)):
        calls.clear()
        report = run_multiverse(ds, risks=risks, profiles=scalar,
                                tau=Truncation("value", 365.0), bootstrap=bootstrap)
        assert all(r.error is None for r in report.results)
        # (0, pec_product), (1e-8, uno_squared) and (0, uno_squared) per draw.
        assert len(calls) == 3 * draws


def _single_profile_cell(ds, risks, sm, profile, *, tau=None, g=None,
                         bootstrap=None, seed=0):
    """One profile's cell from concordance/concordance_td and bootstrap_ci alone."""
    if profile.requires_tau and tau is None:
        return {"error": "requires an explicit truncation time"}
    policy = profile.policy if tau is None else profile.policy.replace(truncation=tau)
    if g is None:
        policy = policy.replace(g_source="test_set")  # the same-data workaround

    def score(sub, idx):
        if profile.requires_matrix:
            resampled = SurvivalMatrix(grid=sm.grid, probs=sm.probs[idx])
            return concordance_td(sub, resampled, policy, g=g)
        return concordance(sub, risks[idx], policy, g=g)

    try:
        estimate, tally = score(ds, np.arange(ds.n))
    except ComputationError as exc:
        return {"error": str(exc)}
    cell = {
        "estimate": estimate,
        "numerator": tally.numerator,
        "denominator": tally.denominator,
        "per_case": tally.per_case,
        "dropped_pairs": tally.dropped_pairs,
        "tau_used": policy.truncation.resolve(ds.times[ds.events == 1]),
        "ci_lower": None,
        "ci_upper": None,
        "failed_resamples": 0,
        "error": None,
    }
    if bootstrap is not None:
        try:
            boot = bootstrap_ci(
                ds, lambda idx: score(ds.subset(idx), idx)[0], bootstrap, seed=seed
            )
        except ComputationError as exc:
            cell.update(failed_resamples=bootstrap.n_resamples, error=f"bootstrap: {exc}")
            return cell
        cell.update(ci_lower=boot.lower, ci_upper=boot.upper,
                    failed_resamples=boot.n_failed)
    return cell


def _equivalence_scenarios():
    ds, risks, sm = _tie_rich(60, seed=4)
    other, _, _ = _tie_rich(60, seed=5)
    small, small_risks, small_sm = _tie_rich(10, seed=27, event_rate=0.2, n_times=8)
    return {
        "sample_size": (ds, risks, sm, dict(bootstrap=BootstrapSpec(6, sample_size=25))),
        "tau": (ds, risks, sm, dict(tau=Truncation("value", float(np.median(ds.times))),
                                    bootstrap=BootstrapSpec(5, level=0.9))),
        "provided_g": (ds, risks, sm, dict(g=km_fit(other, "censoring"),
                                           bootstrap=BootstrapSpec(5, sample_size=40))),
        "heavy_censoring": (small, small_risks, small_sm,
                            dict(bootstrap=BootstrapSpec(8, sample_size=4))),
    }


@pytest.mark.parametrize("scenario", list(_equivalence_scenarios()))
def test_multiverse_cells_equal_single_profile_api(scenario):
    ds, risks, sm, options = _equivalence_scenarios()[scenario]
    seed = 9
    report = run_multiverse(ds, risks=risks, matrix=sm, seed=seed, **options)
    for profile in get_profiles():
        want = _single_profile_cell(ds, risks, sm, profile, seed=seed, **options)
        got = report.result(profile.name).to_dict()
        assert {key: got[key] for key in want} == want, profile.name

    if scenario == "heavy_censoring":
        # Failures are counted per profile, and a profile whose resamples all
        # fail keeps its point estimate and the tally of its applied policy.
        cells = report.results
        failed = {r.failed_resamples for r in cells if r.error is None}
        assert len(failed) > 1 and max(failed) > 0
        all_failed = [r for r in cells if r.error == "bootstrap: all bootstrap resamples failed"]
        assert all_failed
        g_used = {"test_set": "test_set", "provided": "test_set_workaround"}
        for r in all_failed:
            policy = _by_name()[r.name].policy
            assert r.estimate is not None and r.numerator is not None, r.name
            assert r.weight_scheme == policy.weight_scheme, r.name
            want = None if policy.weight_scheme == "uniform" else g_used[policy.g_source]
            assert r.g_used == want, r.name


@st.composite
def _bootstrap_instance(draw):
    """Tie-rich data and a bootstrap that draws some subjects many times."""
    n = draw(st.integers(2, 24))

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    last_time = draw(st.integers(2, max(2, n // 2 + 1)))  # few distinct times
    times = np.array(column(st.integers(1, last_time)), float)
    events = np.array(column(st.integers(0, 1)))
    # Risks on a 0.1 lattice, some nudged to tie only at tolerance 1e-8.
    nudges = np.array(column(st.sampled_from([0.0, 5e-9])))
    risks = np.array(column(st.integers(-3, 3))) / 10 + nudges
    grid = TimeGrid(np.arange(0.0, times.max()))
    steps = draw(st.lists(st.lists(st.integers(0, 10), min_size=len(grid),
                                   max_size=len(grid)), min_size=n, max_size=n))
    sm = SurvivalMatrix(grid=grid, probs=np.sort(np.array(steps) / 10, axis=1)[:, ::-1])
    ds = SurvivalDataset(times=times, events=events)
    sizes = st.sampled_from([None, 1, max(1, n // 3), 2 * n])
    spec = BootstrapSpec(draw(st.integers(1, 4)), sample_size=draw(sizes))
    options = dict(bootstrap=spec, seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        options["tau"] = Truncation("value", float(draw(st.sampled_from(times))))
    if draw(st.booleans()):
        options["g"] = km_fit(SurvivalDataset(times=times, events=1 - events), "censoring")
    return ds, risks, sm, options


@settings(max_examples=60, deadline=None)
@given(_bootstrap_instance())
def test_bootstrap_from_multiplicities_equals_resampled_subsets(instance):
    """Every cell, interval bounds included, is the one built from
    ``ds.subset`` on each resample, bit for bit: all builtins cover tolerances
    0 and 1e-8, IPCW, largest-uncensored tau and curve ranking."""
    ds, risks, sm, options = instance
    report = run_multiverse(ds, risks=risks, matrix=sm, **options)
    for profile in get_profiles():
        want = _single_profile_cell(ds, risks, sm, profile, **options)
        got = report.result(profile.name).to_dict()
        assert repr({key: got[key] for key in want}) == repr(want), profile.name
