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
from functools import cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import (
    ComputationError,
    InputError,
    PairCase,
    SurvivalDataset,
    SurvivalMatrix,
    _check_kind,
    _field_dict,
    _reject_unknown_keys,
    as_float,
    as_risk_array,
    as_seed,
)
from .engine import (
    FOLD_MAX_COMPLEMENT,
    G_SOURCE_PROVIDED,
    STRICT_PAIRS,
    TRUNC_MAX_UNCENSORED,
    TRUNC_NONE,
    ConcordancePolicy,
    PairTally,
    Truncation,
    _Draw,
    _Scorer,
    antolini_policy,
    tie_weighted_policy,
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
    score only when their policy truncates or the run is given any ``tau``,
    ``mode="none"`` included.
    """

    name: str
    family: str
    policy: ConcordancePolicy
    requires_tau: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        for name, kind, word in (("name", str, "string"), ("notes", str, "string"),
                                 ("requires_tau", bool, "boolean"),
                                 ("policy", ConcordancePolicy, "ConcordancePolicy")):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InputError(f"{name} must be a {word}, got {value!r}")
        if self.family not in (FAMILY_C, FAMILY_C_TAU, FAMILY_C_TD):
            raise InputError(f"unknown estimator family {self.family!r}")

    @property
    def requires_matrix(self) -> bool:
        return self.family == FAMILY_C_TD


def _table(**overrides: tuple[float, float]) -> dict[PairCase, tuple[float, float]]:
    out: dict[PairCase, tuple[float, float]] = dict(STRICT_PAIRS)
    for label, rule in overrides.items():
        out[PairCase(label.removeprefix("c"))] = rule
    return out


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


@cache
def _builtins() -> tuple[Profile, ...]:
    """The shipped profiles, built on first use and shared for the process."""
    return (
        # Hmisc::rcorr.cens.  Tied-time pairs with one event and one censoring
        # are comparable.  With the default outx=FALSE tied predictions stay in
        # at half credit; outx=TRUE removes tied-prediction pairs entirely.
        Profile("hmisc", FAMILY_C, tie_weighted_policy(1.0, 0.5),
                notes="rcorr.cens with outx=FALSE: tied predictions comparable "
                      "at half credit"),
        Profile("hmisc_outx", FAMILY_C,
                ConcordancePolicy(_table(c6A=(1.0, 1.0), c6B=(1.0, 0.0))),
                notes="rcorr.cens with outx=TRUE: tied-prediction pairs excluded"),
        # SurvMetrics::Cindex.  The only emulation that treats tied times with
        # two observed events as comparable (half credit unless predictions
        # tie as well, then full), and the only one that half-credits a
        # tied-time event/censored pair ranked the wrong way.
        Profile("survmetrics", FAMILY_C, ConcordancePolicy(_table(
                    c1C=(1.0, 0.5), c2C=(1.0, 0.5),
                    c5A=(1.0, 0.5), c5B=(1.0, 0.5), c5C=(1.0, 1.0),
                    c6A=(1.0, 1.0), c6B=(1.0, 0.5), c6C=(1.0, 0.5))),
                notes="Cindex: event/event tied times comparable; discordant "
                      "tied-time event/censored pairs get half credit"),
        # lifelines.utils.concordance_index: ties always in, always half credit.
        Profile("lifelines", FAMILY_C, tie_weighted_policy(1.0, 0.5),
                notes="concordance_index: tied predictions at half credit"),
        # pysurvival.utils.metrics.concordance_index.  Censoring-weighted
        # (product of inverse censoring survival at and just before the anchor
        # time) but never truncated, and folded to max(C, 1 - C), which can
        # mask worse-than-random ranking.  With include_ties=False
        # (pysurvival_noties) tied predictions stay comparable for no credit.
        Profile("pysurvival", FAMILY_C,
                tie_weighted_policy(1.0, 0.5, weight_scheme=WEIGHT_PEC_PRODUCT,
                                    final_fold=FOLD_MAX_COMPLEMENT),
                notes="concordance_index: IPCW without truncation; reports "
                      "max(C, 1-C)"),
        Profile("pysurvival_noties", FAMILY_C,
                tie_weighted_policy(1.0, 0.0, weight_scheme=WEIGHT_PEC_PRODUCT,
                                    final_fold=FOLD_MAX_COMPLEMENT),
                notes="concordance_index: IPCW without truncation; reports "
                      "max(C, 1-C)"),
        # sksurv.metrics.concordance_index_censored.  Unweighted; predictions
        # are tied when their absolute difference is at most tied_tol (1e-8).
        Profile("sksurv_censored", FAMILY_C,
                tie_weighted_policy(1.0, 0.5, tie_tolerance=1e-8),
                notes="concordance_index_censored: tied_tol defines tied predictions"),
        # sksurv.metrics.concordance_index_ipcw.  Ties as above; pairs weighted
        # by the inverse squared censoring survival at the anchor time, with
        # the censoring distribution fitted on a *training* set supplied by the
        # caller (passing the evaluated data itself reproduces the same-data
        # workaround).  No truncation unless tau is given.
        Profile("sksurv_ipcw", FAMILY_C_TAU,
                tie_weighted_policy(1.0, 0.5, tie_tolerance=1e-8,
                                    weight_scheme=WEIGHT_UNO_SQUARED,
                                    g_source=G_SOURCE_PROVIDED),
                notes="concordance_index_ipcw: censoring survival fitted on a "
                      "training set"),
        pec_profile(),
        # survival::concordance with timewt "n" (uniform) or "n/G2" (IPCW).
        # Tied-time event/censored pairs are comparable; tied predictions earn
        # half credit.  No truncation unless ymax is given.
        Profile("survival_n", FAMILY_C_TAU, tie_weighted_policy(1.0, 0.5),
                notes="concordance with timewt='n'"),
        Profile("survival_n_g2", FAMILY_C_TAU,
                tie_weighted_policy(1.0, 0.5, weight_scheme=WEIGHT_UNO_SQUARED),
                notes="concordance with timewt='n/G2'"),
        # survC1::Est.Cval.  Inverse squared censoring weights; refuses to run
        # without an explicit truncation time.  Tied times are never
        # comparable, and a tied-prediction pair whose partner is censored
        # earns *full* credit (encoded verbatim from the package's behaviour).
        Profile("survc1", FAMILY_C_TAU,
                ConcordancePolicy(_table(c1C=(1.0, 0.5), c2C=(1.0, 1.0)),
                                  weight_scheme=WEIGHT_UNO_SQUARED),
                requires_tau=True,
                notes="Est.Cval: tau mandatory; tied times excluded; "
                      "censored-partner tied predictions fully credited"),
        # pycox.evaluation.EvalSurv.concordance_td, method "antolini" or
        # "adj_antolini".
        Profile("pycox_ant", FAMILY_C_TD, antolini_policy(adjusted=False),
                notes="concordance_td(method='antolini'): ranks by survival at "
                      "the anchor's time"),
        Profile("pycox_adj_ant", FAMILY_C_TD, antolini_policy(adjusted=True),
                notes="concordance_td(method='adj_antolini'): ranks by survival "
                      "at the anchor's time"),
    )


def get_profiles(
    names: Sequence[str] | None = None, extra: Sequence[Profile] = ()
) -> list[Profile]:
    """Look ``names`` up among the builtin profiles and the ``extra`` ones
    (``None``: every builtin, then every extra).

    An extra whose name a builtin or an earlier extra has, an unknown name
    and a name given twice are errors: no two profiles may share a name.
    """
    registry = {p.name: p for p in _builtins()}
    for profile in extra:
        if profile.name in registry:
            raise InputError(f"profile name {profile.name!r} is already taken")
        registry[profile.name] = profile
    if names is None:
        return list(registry.values())
    _reject_repeated_names(names)
    for name in names:
        if name not in registry:
            raise InputError(
                f"unknown profile {name!r}; available: {', '.join(sorted(registry))}"
            )
    return [registry[name] for name in names]


def _reject_repeated_names(names: Iterable[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise InputError(f"profile {name!r} is named more than once")
        seen.add(name)


# ---------------------------------------------------------------------------
# Declarative profile (de)serialization, shared with the report's provenance.

def policy_to_dict(policy: ConcordancePolicy) -> dict:
    return {
        **_field_dict(policy),
        "case_table": {
            case.value: [rule.comparable_weight, rule.credit]
            for case, rule in policy.case_table.items()
            if rule.comparable_weight > 0
        },
        "truncation": _field_dict(policy.truncation),
    }


def policy_from_dict(d: Mapping) -> ConcordancePolicy:
    """Read :func:`policy_to_dict`'s form; a key left out takes its default."""
    _reject_unknown_keys(d, ConcordancePolicy, "policy")
    knobs = {"case_table": {}, **d}
    table = knobs["case_table"]
    _reject_unknown_keys(table, [case.value for case in PairCase], "case_table")
    knobs["case_table"] = {PairCase(label): rule for label, rule in table.items()}
    if "truncation" in knobs:
        _reject_unknown_keys(knobs["truncation"], Truncation, "truncation")
        knobs["truncation"] = Truncation(**knobs["truncation"])
    return ConcordancePolicy(**knobs)


def profile_to_dict(profile: Profile) -> dict:
    return {**_field_dict(profile), "policy": policy_to_dict(profile.policy)}


def profile_from_dict(d: Mapping) -> Profile:
    """Read :func:`profile_to_dict`'s form; a key left out takes its default."""
    _reject_unknown_keys(d, Profile, "profile")
    if "name" not in d:
        raise InputError("missing 'name'")
    policy = policy_from_dict(d.get("policy", {}))
    return Profile(**{"family": FAMILY_C, **d, "policy": policy})


# ---------------------------------------------------------------------------
# Multiverse evaluation.

TRANSFORM_AT_TIME = "at-time"
TRANSFORM_EXPECTED_MORTALITY = "expected-mortality"
TRANSFORM_NEG_RMST = "neg-rmst"

#: The numbers each transform kind takes.
_TRANSFORM_NUMBERS = {
    TRANSFORM_AT_TIME: ("time",),
    TRANSFORM_EXPECTED_MORTALITY: (),
    TRANSFORM_NEG_RMST: ("horizon",),
}


@dataclass(frozen=True)
class TransformSpec:
    """How to reduce a survival matrix to scalar risks for C / C_tau profiles."""

    kind: str
    time: float | None = None
    horizon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _TRANSFORM_NUMBERS:
            raise InputError(f"unknown transform {self.kind!r}")
        for name in ("time", "horizon"):
            value = getattr(self, name)
            if value is None:
                continue
            if name not in _TRANSFORM_NUMBERS[self.kind]:
                raise InputError(f"{self.kind} transform takes no {name}")
            object.__setattr__(self, name, as_float(value, f"transform {name}"))
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

    def apply(self, sm: SurvivalMatrix) -> np.ndarray:
        if self.kind == TRANSFORM_AT_TIME:
            return risk_at_time(sm, self.time)
        if self.kind == TRANSFORM_EXPECTED_MORTALITY:
            return expected_mortality(sm)
        return neg_rmst(sm, self.horizon)

    def to_dict(self) -> dict:
        return _field_dict(self)


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
    weight_scheme: str | None = None
    g_used: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {**_field_dict(self), "per_case": dict(self.per_case)}


@dataclass(frozen=True)
class MultiverseReport:
    provenance: dict  # keyed by PROVENANCE_KEYS
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


#: A report's provenance keys, which a profile file may carry too (io reloads it).
PROVENANCE_KEYS = ("dataset", "grid", "transform", "tau", "bootstrap", "seed", "profiles")


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
    an explicit truncation produce an error cell.  Two profiles may not share
    a name.  An incompatible input
    yields an error cell for that profile while the others still compute.

    Each profile's policy is scored as written, and the run's two overrides
    are applied per draw: ``tau`` takes the place of the policy's
    truncation, and without ``g`` the censoring distribution is fitted on
    the draw itself.  For profiles whose G is normally fitted on a separate
    training set that is the same-data workaround; the report records which
    source was used.

    Profiles differ only in how pair counts are reduced, so the data are
    counted once per rank source (risks or curves) and tie tolerance, the
    censoring distribution is fitted at most once and IPCW weights are made
    once per weight scheme; every profile is reduced from those shared
    counts.  Bootstrap intervals (percentile) draw the
    resamples from one per-seed stream and score every profile on each
    resample in turn, with the same sharing, so every profile sees the same
    resamples by construction.  A resample is the number of times it draws
    each subject: the sorted structure of the scalar risks and the grouping
    of tied times are built once, on the full data, and each resample reads
    its counts and fits its censoring distribution from its
    multiplicities, giving the estimate the resampled data would, bit for
    bit.  Transforms are applied once to the full matrix before
    resampling, while data-dependent truncation and test-set censoring fits
    are re-resolved on every resample.  A profile whose
    resamples all fail keeps its estimate and full-data tally, with
    ``failed_resamples`` equal to the number of resamples and the error
    ``"bootstrap: all bootstrap resamples failed"``.
    """
    seed = as_seed(seed)
    _check_kind(ds, SurvivalDataset, "ds")
    for value, kind, what in (
        (matrix, SurvivalMatrix, "matrix"), (transform, TransformSpec, "transform"),
        (tau, Truncation, "tau"), (bootstrap, BootstrapSpec, "bootstrap"),
    ):
        if value is not None:
            _check_kind(value, kind, what)
    if profiles is None:
        profiles = _builtins()
    for profile in profiles:
        _check_kind(profile, Profile, "profiles")
    _reject_repeated_names(p.name for p in profiles)
    scalar, no_scalar = None, "requires a risk vector or a transform over a matrix"
    if risks is not None:
        scalar, no_scalar, transform = as_risk_array(risks, ds.n), None, None
    elif matrix is None:
        transform = None
    elif transform is not None:
        try:
            scalar, no_scalar = transform.apply(matrix), None
        except (InputError, ComputationError) as exc:
            no_scalar = f"transform failed: {exc}"

    unscorable = [_unscorable(p, no_scalar, matrix, tau) for p in profiles]
    live = {k: p for k, p in enumerate(profiles) if unscorable[k] is None}
    curves = None if matrix is None else (matrix.grid.points, matrix.probs)
    scorer = _Scorer(ds, risks=scalar, curves=curves, g=g, resampled=bootstrap is not None)
    full = _outcomes(scorer.draw(), live, tau)
    scored = {k: live[k] for k, outcome in full.items() if not isinstance(outcome, str)}
    # Each scored profile's estimate per resample, None where the resample failed.
    resampled: dict[int, list[float | None]] = {k: [] for k in scored}
    if bootstrap is not None and scored:
        for idx in bootstrap.resamples(ds.n, seed):
            draw = scorer.draw(np.bincount(idx, minlength=ds.n))
            for k, outcome in _outcomes(draw, scored, tau).items():
                resampled[k].append(None if isinstance(outcome, str) else outcome[0])
    cells = tuple(_cell(p, full.get(k, unscorable[k]), resampled.get(k), bootstrap, g)
                  for k, p in enumerate(profiles))

    provenance = dict(zip(PROVENANCE_KEYS, (
        {"n": ds.n, "n_events": ds.n_events},
        None if matrix is None else matrix.grid.points.tolist(),
        None if transform is None else transform.to_dict(),
        None if tau is None else _field_dict(tau),
        None if bootstrap is None else bootstrap.to_dict(),
        seed,
        [profile_to_dict(p) for p in profiles],
    )))
    return MultiverseReport(provenance=provenance, results=cells)


def _unscorable(
    profile: Profile,
    no_scalar: str | None,
    matrix: SurvivalMatrix | None,
    tau: Truncation | None,
) -> str | None:
    """Why these inputs cannot score the profile, or None if they can."""
    if profile.requires_matrix:
        if matrix is None:
            return "requires a survival matrix"
    elif no_scalar is not None:
        return no_scalar
    if profile.requires_tau and profile.policy.truncation.mode == TRUNC_NONE and tau is None:
        return "requires an explicit truncation time"
    return None


#: A profile's estimate and tally on one dataset, or why it has none.
_Outcome = tuple[float, PairTally] | str


def _outcomes(
    draw: _Draw, profiles: Mapping[int, Profile], tau: Truncation | None
) -> dict[int, _Outcome]:
    """Each profile's estimate and tally on ``draw``, or its error message."""
    outcomes: dict[int, _Outcome] = {}
    for k, profile in profiles.items():
        try:
            outcomes[k] = draw.score(profile.policy, profile.requires_matrix,
                                     tau or profile.policy.truncation)
        except ComputationError as exc:
            outcomes[k] = str(exc)
    return outcomes


def _cell(
    profile: Profile,
    outcome: _Outcome,
    resampled: list[float | None] | None,
    spec: BootstrapSpec | None,
    g: StepFunction | None,
) -> ProfileResult:
    """The cell from the full-data outcome and the resample estimates: an
    error cell without a full-data estimate; a failed interval keeps the
    tally and carries the error.  ``g_used`` names where G came from: the
    caller, or a fit on the evaluated data, which for a profile whose G
    comes from a training set is the same-data workaround."""
    scheme = profile.policy.weight_scheme
    if isinstance(outcome, str):
        return ProfileResult(profile.name, profile.family, weight_scheme=scheme, error=outcome)
    estimate, tally = outcome
    fields = dict(
        estimate=estimate,
        numerator=tally.numerator,
        denominator=tally.denominator,
        dropped_pairs=tally.dropped_pairs,
        anchors_beyond_grid=tally.anchors_beyond_grid,
        per_case=tally.per_case,
        tau_used=tally.tau,
        weight_scheme=scheme,
        g_used=None if scheme == WEIGHT_UNIFORM else "provided" if g is not None
        else "test_set_workaround" if profile.policy.g_source == G_SOURCE_PROVIDED
        else "test_set",
    )
    if spec is not None:
        values = [v for v in resampled if v is not None]
        fields["failed_resamples"] = len(resampled) - len(values)
        try:
            boot = spec.interval(values, fields["failed_resamples"])
            fields.update(ci_lower=boot.lower, ci_upper=boot.upper)
        except ComputationError as exc:
            fields["error"] = f"bootstrap: {exc}"
    return ProfileResult(profile.name, profile.family, **fields)
