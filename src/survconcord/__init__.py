"""Concordance-index estimation for right-censored time-to-event predictions.

One configurable pairwise engine whose policy knobs (tie weights, censoring
weights, time truncation, input transformation) reproduce the documented
behaviour of the popular R and python implementations, plus a semi-synthetic
data generator with ground-truth concordance for bias studies.
"""

from .data import (
    ComputationError,
    InputError,
    PairCase,
    RankRelation,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    classify_pair,
)
from .engine import (
    CaseRule,
    ConcordancePolicy,
    DecompositionReport,
    PairTally,
    StepFunction,
    Truncation,
    antolini_policy,
    concordance,
    concordance_td,
    decompose,
    ipcw_weights,
    km_fit,
    tie_weighted_policy,
)
from .profiles import (
    BootstrapResult,
    BootstrapSpec,
    MultiverseReport,
    Profile,
    ProfileResult,
    TransformSpec,
    bootstrap_ci,
    get_profiles,
    pec_profile,
    profile_from_dict,
    profile_to_dict,
    run_multiverse,
)
from .synthetic import (
    UniformQuantileCensoring,
    WeibullCensoring,
    WeibullPHParams,
    assemble,
    generate_censoring,
    generate_event_times,
    oracle_cindex,
    subseed,
)
from .transforms import (
    DEFAULT_HORIZON,
    default_common_grid,
    expected_mortality,
    interpolate,
    neg_rmst,
    risk_at_time,
)

__version__ = "0.1.0"
