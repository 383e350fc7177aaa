"""Named policy bundles that reproduce documented software behaviours.

Each profile is *data*: a full case table plus the tie tolerance, weighting
scheme, truncation default and final fold that one R or python implementation
applies.  Differences between implementations are tabular, so encoding them
as data keeps the whole family auditable and lets users define their own
policies in a config file with the same schema as the report's provenance
block.

``run_multiverse`` evaluates a dataset under many profiles side by side and
returns a deterministic, serializable report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import (
    ComputationError,
    InputError,
    PairCase,
    SurvivalDataset,
    SurvivalMatrix,
    as_risk_array,
)
from .engine import (
    FOLD_MAX_COMPLEMENT,
    G_SOURCE_PROVIDED,
    G_SOURCE_TEST_SET,
    TRUNC_MAX_UNCENSORED,
    TRUNC_NONE,
    CaseRule,
    ConcordancePolicy,
    PairTally,
    Truncation,
    _Scorer,
    antolini_policy,
)
from .km import WEIGHT_PEC_PRODUCT, WEIGHT_UNIFORM, WEIGHT_UNO_SQUARED, StepFunction
from .resampling import BootstrapSpec
from .transforms import expected_mortality, neg_rmst, risk_at_time

# The single-profile forms of run_multiverse stay importable from this module,
# although it no longer calls them: bench/tracing.py wraps them here.
from .engine import concordance, concordance_td  # noqa: F401
from .resampling import bootstrap_ci  # noqa: F401

FAMILY_C = "C"
FAMILY_C_TAU = "C_tau"
FAMILY_C_TD = "C_td"


@dataclass(frozen=True)
class Profile:
    """A named ConcordancePolicy with routing metadata.

    The policy alone decides how pairs are scored.  ``family == "C_td"``
    only switches the rank source from scalar risks to survival curves
    evaluated at the anchor's time.  ``requires_tau`` marks emulations that
    refuse to run without an explicit truncation time.
    """

    name: str
    family: str
    policy: ConcordancePolicy
    requires_tau: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_C, FAMILY_C_TAU, FAMILY_C_TD):
            raise InputError(f"unknown estimator family {self.family!r}")

    @property
    def requires_matrix(self) -> bool:
        return self.family == FAMILY_C_TD


_STRICT_BASE = {
    PairCase.C1A: (1.0, 1.0),
    PairCase.C1B: (1.0, 0.0),
    PairCase.C2A: (1.0, 1.0),
    PairCase.C2B: (1.0, 0.0),
}


def _table(**overrides: tuple[float, float]) -> dict[PairCase, tuple[float, float]]:
    out: dict[PairCase, tuple[float, float]] = dict(_STRICT_BASE)
    for label, rule in overrides.items():
        out[PairCase(label.removeprefix("c"))] = rule
    return out


#: Strict pairs plus tied-time event/censored pairs, tied predictions at half
#: credit: the table shared by hmisc, lifelines, sksurv and survival.
_HALF_TIES = _table(
    c1C=(1.0, 0.5), c2C=(1.0, 0.5),
    c6A=(1.0, 1.0), c6B=(1.0, 0.0), c6C=(1.0, 0.5),
)


def hmisc_profile(include_tied_predictions: bool = True) -> Profile:
    """Hmisc::rcorr.cens.

    Tied-time pairs with one event and one censoring count as comparable.
    With the default (outx=FALSE) tied predictions stay in and earn half
    credit; with outx=TRUE tied-prediction pairs are removed from the
    comparable set entirely.
    """
    if include_tied_predictions:
        table = _HALF_TIES
        name = "hmisc"
        note = "rcorr.cens with outx=FALSE: tied predictions comparable at half credit"
    else:
        table = _table(c6A=(1.0, 1.0), c6B=(1.0, 0.0))
        name = "hmisc_outx"
        note = "rcorr.cens with outx=TRUE: tied-prediction pairs excluded"
    return Profile(name=name, family=FAMILY_C,
                   policy=ConcordancePolicy(case_table=table), notes=note)


def survmetrics_profile() -> Profile:
    """SurvMetrics::Cindex.

    The only emulation that treats tied times with two observed events as
    comparable (half credit unless predictions tie as well, then full), and
    the only one that half-credits a tied-time event/censored pair ranked
    the wrong way.
    """
    table = _table(
        c1C=(1.0, 0.5), c2C=(1.0, 0.5),
        c5A=(1.0, 0.5), c5B=(1.0, 0.5), c5C=(1.0, 1.0),
        c6A=(1.0, 1.0), c6B=(1.0, 0.5), c6C=(1.0, 0.5),
    )
    return Profile(
        name="survmetrics", family=FAMILY_C,
        policy=ConcordancePolicy(case_table=table),
        notes="Cindex: event/event tied times comparable; discordant tied-time "
              "event/censored pairs get half credit",
    )


def lifelines_profile() -> Profile:
    """lifelines.utils.concordance_index: ties always in, always half credit."""
    return Profile(name="lifelines", family=FAMILY_C,
                   policy=ConcordancePolicy(case_table=_HALF_TIES),
                   notes="concordance_index: tied predictions at half credit")


def pysurvival_profile(include_ties: bool = True) -> Profile:
    """pysurvival.utils.metrics.concordance_index.

    Censoring-weighted (product of inverse censoring survival at and just
    before the anchor time) but never truncated, and the result is folded to
    max(C, 1 - C), which can mask worse-than-random ranking.  With
    include_ties=False tied predictions stay comparable but earn no credit.
    """
    tie_credit = 0.5 if include_ties else 0.0
    table = _table(
        c1C=(1.0, tie_credit), c2C=(1.0, tie_credit),
        c6A=(1.0, 1.0), c6B=(1.0, 0.0), c6C=(1.0, tie_credit),
    )
    return Profile(
        name="pysurvival" if include_ties else "pysurvival_noties",
        family=FAMILY_C,
        policy=ConcordancePolicy(
            case_table=table,
            weight_scheme=WEIGHT_PEC_PRODUCT,
            final_fold=FOLD_MAX_COMPLEMENT,
        ),
        notes="concordance_index: IPCW without truncation; reports max(C, 1-C)",
    )


_SKSURV_TIED_TOL = 1e-8


def sksurv_censored_profile(tied_tolerance: float = _SKSURV_TIED_TOL) -> Profile:
    """sksurv.metrics.concordance_index_censored.

    Unweighted; predictions are tied when their absolute difference is at
    most the tolerance (default 1e-8).
    """
    return Profile(
        name="sksurv_censored", family=FAMILY_C,
        policy=ConcordancePolicy(case_table=_HALF_TIES, tie_tolerance=tied_tolerance),
        notes="concordance_index_censored: tied_tol defines tied predictions",
    )


def sksurv_ipcw_profile(tied_tolerance: float = _SKSURV_TIED_TOL) -> Profile:
    """sksurv.metrics.concordance_index_ipcw.

    Weights pairs by the inverse squared censoring survival at the anchor
    time, with the censoring distribution fitted on a *training* set supplied
    by the caller; passing the evaluated data itself reproduces the
    same-data workaround.  No truncation unless tau is given.
    """
    return Profile(
        name="sksurv_ipcw", family=FAMILY_C_TAU,
        policy=ConcordancePolicy(
            case_table=_HALF_TIES,
            tie_tolerance=tied_tolerance,
            weight_scheme=WEIGHT_UNO_SQUARED,
            g_source=G_SOURCE_PROVIDED,
        ),
        notes="concordance_index_ipcw: censoring survival fitted on a training set",
    )


def pec_profile(
    tied_pred_in: bool = True,
    tied_outcome_in: bool = True,
    tied_match_in: bool = True,
) -> Profile:
    """pec::cindex with its three tie switches (all on by default).

    tiedPredIn keeps tied-prediction pairs comparable (half credit);
    tiedOutcomeIn keeps event/event tied-time pairs; tiedMatchIn grants full
    credit when both times and predictions tie with two observed events.
    Censoring weights are the product of inverse censoring survival just
    before and at the anchor time; the default truncation is the largest
    uncensored time.
    """
    overrides: dict[str, tuple[float, float]] = {
        "c6A": (1.0, 1.0), "c6B": (1.0, 0.0),
    }
    if tied_pred_in:
        overrides["c1C"] = (1.0, 0.5)
        overrides["c2C"] = (1.0, 0.5)
        overrides["c6C"] = (1.0, 0.5)
    if tied_outcome_in:
        overrides["c5A"] = (1.0, 1.0)
        overrides["c5B"] = (1.0, 0.0)
    # Both-tied event/event pairs: full credit whenever tiedMatchIn is on,
    # otherwise they ride on tiedPredIn with credit depending on tiedOutcomeIn.
    if tied_match_in:
        overrides["c5C"] = (1.0, 1.0)
    elif tied_pred_in:
        overrides["c5C"] = (1.0, 0.5 if tied_outcome_in else 0.0)
    flags = f"{int(tied_outcome_in)}{int(tied_pred_in)}{int(tied_match_in)}"
    name = "pec" if (tied_pred_in and tied_outcome_in and tied_match_in) else f"pec_{flags}"
    return Profile(
        name=name, family=FAMILY_C_TAU,
        policy=ConcordancePolicy(
            case_table=_table(**overrides),
            weight_scheme=WEIGHT_PEC_PRODUCT,
            truncation=Truncation(mode=TRUNC_MAX_UNCENSORED),
        ),
        notes=f"cindex with tiedOutcomeIn/tiedPredIn/tiedMatchIn = {flags}",
    )


def survival_profile(weighting: str = "n") -> Profile:
    """survival::concordance with timewt "n" (uniform) or "n/G2" (IPCW).

    Tied-time event/censored pairs are comparable; tied predictions earn half
    credit.  No truncation unless ymax is given.
    """
    if weighting == "n":
        scheme, name = WEIGHT_UNIFORM, "survival_n"
    elif weighting == "n/G2":
        scheme, name = WEIGHT_UNO_SQUARED, "survival_n_g2"
    else:
        raise InputError(f"unknown survival weighting {weighting!r}")
    return Profile(
        name=name, family=FAMILY_C_TAU,
        policy=ConcordancePolicy(case_table=_HALF_TIES, weight_scheme=scheme),
        notes=f"concordance with timewt={weighting!r}",
    )


def survc1_profile() -> Profile:
    """survC1::Est.Cval.

    Inverse squared censoring weights; refuses to run without an explicit
    truncation time.  Tied times are never comparable, and a tied-prediction
    pair whose partner is censored earns *full* credit (encoded verbatim from
    the package's behaviour).
    """
    table = _table(c1C=(1.0, 0.5), c2C=(1.0, 1.0))
    return Profile(
        name="survc1", family=FAMILY_C_TAU,
        policy=ConcordancePolicy(case_table=table, weight_scheme=WEIGHT_UNO_SQUARED),
        requires_tau=True,
        notes="Est.Cval: tau mandatory; tied times excluded; censored-partner "
              "tied predictions fully credited",
    )


def pycox_profile(adjusted: bool = False) -> Profile:
    """pycox.evaluation.EvalSurv.concordance_td ("antolini" or "adj_antolini")."""
    variant = "adj_antolini" if adjusted else "antolini"
    return Profile(
        name="pycox_adj_ant" if adjusted else "pycox_ant",
        family=FAMILY_C_TD,
        policy=antolini_policy(adjusted=adjusted),
        notes=f"concordance_td(method={variant!r}): ranks by survival at the "
              "anchor's time",
    )


def builtin_profiles() -> list[Profile]:
    """All shipped emulation profiles with their default switches."""
    return [
        hmisc_profile(True),
        hmisc_profile(False),
        survmetrics_profile(),
        lifelines_profile(),
        pysurvival_profile(True),
        pysurvival_profile(False),
        sksurv_censored_profile(),
        sksurv_ipcw_profile(),
        pec_profile(),
        survival_profile("n"),
        survival_profile("n/G2"),
        survc1_profile(),
        pycox_profile(False),
        pycox_profile(True),
    ]


def get_profiles(names: Sequence[str], extra: Sequence[Profile] = ()) -> list[Profile]:
    """Look ``names`` up among the builtin profiles and the ``extra`` ones."""
    registry = {p.name: p for p in [*builtin_profiles(), *extra]}
    out = []
    for name in names:
        if name not in registry:
            raise InputError(
                f"unknown profile {name!r}; available: {', '.join(sorted(registry))}"
            )
        out.append(registry[name])
    return out


# ---------------------------------------------------------------------------
# Declarative profile (de)serialization, shared with the report's provenance.

def policy_to_dict(policy: ConcordancePolicy) -> dict:
    return {
        "case_table": {
            case.value: [rule.comparable_weight, rule.credit]
            for case, rule in policy.case_table.items()
            if rule.comparable_weight > 0
        },
        "tie_tolerance": policy.tie_tolerance,
        "weight_scheme": policy.weight_scheme,
        "g_source": policy.g_source,
        "truncation": {"mode": policy.truncation.mode, "value": policy.truncation.value},
        "final_fold": policy.final_fold,
    }


def _reject_unknown_keys(d: Mapping, known: Sequence[str], what: str) -> None:
    """Refuse keys that the ``*_to_dict`` functions never write (e.g. typos)."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InputError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def policy_from_dict(d: Mapping) -> ConcordancePolicy:
    _reject_unknown_keys(d, ("case_table", "tie_tolerance", "weight_scheme",
                             "g_source", "truncation", "final_fold"), "policy")
    table = {
        PairCase(label): CaseRule(float(w), float(credit))
        for label, (w, credit) in d.get("case_table", {}).items()
    }
    trunc = d.get("truncation", {"mode": TRUNC_NONE, "value": None})
    _reject_unknown_keys(trunc, ("mode", "value"), "truncation")
    return ConcordancePolicy(
        case_table=table,
        tie_tolerance=float(d.get("tie_tolerance", 0.0)),
        weight_scheme=d.get("weight_scheme", WEIGHT_UNIFORM),
        g_source=d.get("g_source", G_SOURCE_TEST_SET),
        truncation=Truncation(
            mode=trunc.get("mode", TRUNC_NONE),
            value=None if trunc.get("value") is None else float(trunc["value"]),
        ),
        final_fold=d.get("final_fold", "identity"),
    )


def profile_to_dict(profile: Profile) -> dict:
    return {
        "name": profile.name,
        "family": profile.family,
        "requires_tau": profile.requires_tau,
        "notes": profile.notes,
        "policy": policy_to_dict(profile.policy),
    }


def profile_from_dict(d: Mapping) -> Profile:
    _reject_unknown_keys(
        d, ("name", "family", "requires_tau", "notes", "policy"), "profile"
    )
    return Profile(
        name=str(d["name"]),
        family=d.get("family", FAMILY_C),
        policy=policy_from_dict(d.get("policy", {})),
        requires_tau=bool(d.get("requires_tau", False)),
        notes=str(d.get("notes", "")),
    )


# ---------------------------------------------------------------------------
# Multiverse evaluation.

TRANSFORM_AT_TIME = "at-time"
TRANSFORM_EXPECTED_MORTALITY = "expected-mortality"
TRANSFORM_NEG_RMST = "neg-rmst"


@dataclass(frozen=True)
class TransformSpec:
    """How to reduce a survival matrix to scalar risks for C / C_tau profiles."""

    kind: str
    time: float | None = None
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.kind == TRANSFORM_AT_TIME:
            if self.time is None or not 0 <= self.time < np.inf:
                raise InputError(
                    f"at-time transform needs a finite time >= 0, got {self.time!r}"
                )
        elif self.kind == TRANSFORM_NEG_RMST:
            if self.horizon is None or not 0 < self.horizon < np.inf:
                raise InputError(
                    f"neg-rmst transform needs a finite horizon > 0, got {self.horizon!r}"
                )
        elif self.kind != TRANSFORM_EXPECTED_MORTALITY:
            raise InputError(f"unknown transform {self.kind!r}")

    def apply(self, sm: SurvivalMatrix) -> np.ndarray:
        if self.kind == TRANSFORM_AT_TIME:
            return risk_at_time(sm, self.time)
        if self.kind == TRANSFORM_EXPECTED_MORTALITY:
            return expected_mortality(sm)
        return neg_rmst(sm, self.horizon)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time, "horizon": self.horizon}


@dataclass(frozen=True)
class ProfileResult:
    """One profile's cell in a multiverse report; ``error`` marks skipped cells."""

    name: str
    family: str
    estimate: float | None = None
    ci_lower: float | None = None
    ci_upper: float | None = None
    failed_resamples: int = 0
    numerator: float | None = None
    denominator: float | None = None
    dropped_pairs: int = 0
    anchors_beyond_grid: int = 0
    per_case: dict = field(default_factory=dict)
    tau_used: float | None = None
    weight_scheme: str = WEIGHT_UNIFORM
    g_used: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        # Shallow on purpose: dataclasses.asdict deep-copies every per-case
        # number, which costs more than writing the report.
        return {**vars(self), "per_case": dict(self.per_case)}


@dataclass(frozen=True)
class MultiverseReport:
    provenance: dict
    results: tuple[ProfileResult, ...]

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "results": [r.to_dict() for r in self.results],
        }

    def result(self, name: str) -> ProfileResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def run_multiverse(
    ds: SurvivalDataset,
    *,
    risks=None,
    matrix: SurvivalMatrix | None = None,
    profiles: Sequence[Profile] | None = None,
    transform: TransformSpec | None = None,
    tau: Truncation | None = None,
    g: StepFunction | None = None,
    bootstrap: BootstrapSpec | None = None,
    seed: int = 0,
) -> MultiverseReport:
    """Evaluate one dataset under many profiles side by side.

    Scalar-risk profiles use ``risks`` directly, or else ``transform`` applied
    to ``matrix``; the provenance names the transform only when it was
    applied.  Distribution profiles need ``matrix``.  ``tau`` overrides
    every profile's truncation default; without it, profiles that insist on
    an explicit truncation produce an error cell.  An incompatible input
    yields an error cell for that profile while the others still compute.

    Profiles whose censoring distribution is normally fitted on a separate
    training set fall back to fitting on the evaluated data when ``g`` is
    omitted (the same-data workaround); the report records which source was
    used.

    Profiles differ only in how pair counts are reduced, so the data are
    counted once per rank source (risks or curves) and tie tolerance, and the
    censoring distribution is fitted at most once; every profile is reduced
    from those shared counts.  Bootstrap intervals (percentile) draw the
    resamples from one per-seed stream and score every profile on each
    resample in turn, with the same sharing, so every profile sees the same
    resamples by construction.  Transforms are applied once to the full
    matrix before resampling, while data-dependent truncation and test-set
    censoring fits are re-resolved on every resample.  A profile whose
    resamples all fail keeps its estimate and full-data tally, with
    ``failed_resamples`` equal to the number of resamples and the error
    ``"bootstrap: all bootstrap resamples failed"``.
    """
    if profiles is None:
        profiles = builtin_profiles()
    risks_full = None if risks is None else as_risk_array(risks, ds.n)

    if risks_full is not None or matrix is None:
        transform = None
    transformed = None
    transform_error = None
    if transform is not None:
        try:
            transformed = transform.apply(matrix)
        except (InputError, ComputationError) as exc:
            transform_error = str(exc)
    scalar = risks_full if risks_full is not None else transformed

    cells = [_plan(p, scalar, transform_error, matrix, tau, g) for p in profiles]
    full = _Scorer(ds, risks=scalar, matrix=matrix, g=g)
    points = {}
    for k, plan in enumerate(cells):
        if isinstance(plan, _Plan):
            try:
                points[k] = full.score(plan.policy, plan.curves)
            except ComputationError as exc:
                cells[k] = _named(plan.profile, error=str(exc))
    resampled = {}
    if bootstrap is not None and points:
        live = {k: cells[k] for k in points}
        resampled = _resample_values(ds, scalar, matrix, g, live, bootstrap, seed)
    for k, (estimate, tally) in points.items():
        cells[k] = _cell(cells[k], estimate, tally, resampled.get(k), bootstrap)

    provenance = {
        "dataset": {"n": ds.n, "n_events": ds.n_events},
        "grid": None if matrix is None else matrix.grid.points.tolist(),
        "transform": None if transform is None else transform.to_dict(),
        "tau": None if tau is None else {"mode": tau.mode, "value": tau.value},
        "bootstrap": None if bootstrap is None else bootstrap.to_dict(),
        "seed": seed,
        "profiles": [profile_to_dict(p) for p in profiles],
    }
    return MultiverseReport(provenance=provenance, results=tuple(cells))


@dataclass(frozen=True)
class _Plan:
    """A profile ready to score: the policy actually applied and its rank source."""

    profile: Profile
    policy: ConcordancePolicy
    g_used: str | None

    @property
    def curves(self) -> bool:
        # The family picks only the rank source; the policy decides the rest.
        return self.profile.requires_matrix


def _plan(
    profile: Profile,
    scalar: np.ndarray | None,
    transform_error: str | None,
    matrix: SurvivalMatrix | None,
    tau: Truncation | None,
    g: StepFunction | None,
) -> _Plan | ProfileResult:
    """The profile's plan, or its error cell when these inputs cannot score it."""
    if profile.requires_matrix:
        if matrix is None:
            return _named(profile, error="requires a survival matrix")
    elif scalar is None:
        if transform_error is not None:
            return _named(profile, error=f"transform failed: {transform_error}")
        return _named(
            profile, error="requires a risk vector or a transform over a matrix"
        )

    policy = profile.policy if tau is None else profile.policy.replace(truncation=tau)
    if profile.requires_tau and policy.truncation.mode == TRUNC_NONE and tau is None:
        return _named(profile, error="requires an explicit truncation time")
    g_used = None
    if policy.weight_scheme != WEIGHT_UNIFORM:
        if g is not None:
            g_used = "provided"
        elif policy.g_source == G_SOURCE_PROVIDED:
            # Same-data workaround: fit on the evaluated set and say so.
            policy = policy.replace(g_source=G_SOURCE_TEST_SET)
            g_used = "test_set_workaround"
        else:
            g_used = "test_set"
    return _Plan(profile, policy, g_used)


def _resample_values(
    ds: SurvivalDataset,
    scalar: np.ndarray | None,
    matrix: SurvivalMatrix | None,
    g: StepFunction | None,
    live: Mapping[int, _Plan],
    spec: BootstrapSpec,
    seed: int,
) -> dict[int, tuple[list[float], int]]:
    """Each plan's estimates over the resamples, and how many failed."""
    samples: dict[int, list[float]] = {k: [] for k in live}
    failed = dict.fromkeys(live, 0)
    curves = any(plan.curves for plan in live.values())
    for idx in spec.resamples(ds.n, seed):
        scorer = _Scorer(
            ds.subset(idx),
            risks=None if scalar is None else scalar[idx],
            matrix=matrix.take(idx) if curves else None,
            g=g,
        )
        for k, plan in live.items():
            try:
                samples[k].append(scorer.score(plan.policy, plan.curves)[0])
            except ComputationError:
                failed[k] += 1
    return {k: (samples[k], failed[k]) for k in live}


def _named(profile: Profile, **fields) -> ProfileResult:
    return ProfileResult(name=profile.name, family=profile.family, **fields)


def _cell(
    plan: _Plan,
    estimate: float,
    tally: PairTally,
    resampled: tuple[list[float], int] | None,
    spec: BootstrapSpec | None,
) -> ProfileResult:
    """A scored cell; a failed interval keeps the tally and carries the error."""
    fields = dict(
        estimate=estimate,
        numerator=tally.numerator,
        denominator=tally.denominator,
        dropped_pairs=tally.dropped_pairs,
        anchors_beyond_grid=tally.anchors_beyond_grid,
        per_case=tally.per_case,
        tau_used=tally.tau,
        weight_scheme=tally.policy.weight_scheme,
        g_used=plan.g_used,
    )
    if resampled is not None:
        try:
            boot = spec.interval(*resampled)
        except ComputationError as exc:
            return _named(plan.profile, **fields, failed_resamples=resampled[1],
                          error=f"bootstrap: {exc}")
        fields.update(ci_lower=boot.lower, ci_upper=boot.upper,
                      failed_resamples=boot.n_failed)
    return _named(plan.profile, **fields)
