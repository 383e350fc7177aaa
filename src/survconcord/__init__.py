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
    Truncation,
    antolini_policy,
    concordance,
    concordance_td,
    decompose,
    tie_weighted_policy,
)
from .km import StepFunction, ipcw_weights, km_fit
from .profiles import (
    MultiverseReport,
    Profile,
    ProfileResult,
    TransformSpec,
    builtin_profiles,
    get_profiles,
    hmisc_profile,
    lifelines_profile,
    pec_profile,
    profile_from_dict,
    profile_to_dict,
    pycox_profile,
    pysurvival_profile,
    run_multiverse,
    sksurv_censored_profile,
    sksurv_ipcw_profile,
    survc1_profile,
    survival_profile,
    survmetrics_profile,
)
from .resampling import BootstrapResult, BootstrapSpec, bootstrap_ci
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
