"""Semi-synthetic survival data generation and ground-truth concordance.

Event times follow a Weibull proportional-hazards model and are drawn by
inverse-transform sampling.  Censoring times come from one of three
mechanisms whose intensity is controlled by a scaling factor epsilon:
a scaled Weibull hazard, the same hazard informed by one covariate such
as age, or a uniform distribution capped at a quantile of the event times.
Each mechanism draws its own times from the censoring stream.

Randomness is fully reproducible: every draw uses a PCG64 generator on a
named child stream of the caller's seed (events and censoring never share a
stream), and subject i always consumes the i-th variate of its stream.
Dataset-level parallelism therefore only needs per-dataset seeds, available
via :func:`subseed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import (
    InputError,
    SurvivalDataset,
    SurvivalMatrix,
    TimeGrid,
    _check_kind,
    _float_array,
    as_float,
    as_seed,
)
from .engine import STRICT_PAIRS, ConcordancePolicy, concordance

# neg_rmst stays importable from this module, although the oracle no longer
# calls it: bench/tracing.py wraps it here.
from .transforms import neg_rmst  # noqa: F401

_STREAMS = {"events": 0, "censoring": 1}


def _rng(seed: int, stream: str) -> np.random.Generator:
    ss = np.random.SeedSequence(as_seed(seed), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.PCG64(ss))


def subseed(seed: int, *path: int) -> int:
    """Derive a reproducible child seed, e.g. one per generated dataset."""
    ss = np.random.SeedSequence(as_seed(seed), spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class WeibullPHParams:
    """Weibull proportional-hazards model h(t|x) = shape * t^(shape-1) * scale * e^(x.b)."""

    shape: float
    scale: float
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        for name in ("shape", "scale"):
            value = as_float(getattr(self, name), name)
            if not (value > 0 and math.isfinite(value)):
                raise InputError(f"{name} must be a positive finite number")
            object.__setattr__(self, name, value)
        # One by one: as an array, numpy would read True as 1 and "0.5" as 0.5.
        flat = np.asarray(self.coefficients, dtype=object).reshape(-1)
        beta = _float_array([as_float(b, "coefficient") for b in flat], "coefficients")
        if not np.all(np.isfinite(beta)):
            raise InputError("coefficients must be finite")
        object.__setattr__(self, "coefficients", beta)

    def linear_predictor(self, covariates: np.ndarray) -> np.ndarray:
        x = _float_array(covariates, "covariates")
        if x.ndim != 2 or x.shape[1] != self.coefficients.size:
            raise InputError(
                f"covariates must be (n, {self.coefficients.size}), got {x.shape}"
            )
        return (x * self.coefficients).sum(axis=1)

    def survival_matrix(self, grid: TimeGrid, covariates: np.ndarray) -> SurvivalMatrix:
        """True model curves S(t|x) = exp(-scale * t^shape * e^(x.b)) on a grid."""
        rate = self.scale * np.exp(self.linear_predictor(covariates))
        probs = np.exp(-rate[:, None] * grid.points[None, :] ** self.shape)
        return SurvivalMatrix(grid=grid, probs=probs)


@dataclass(frozen=True)
class WeibullCensoring:
    """Weibull censoring hazard scaled by epsilon (0 = no censoring).

    With ``age_column`` set, the rate also carries exp(beta_age * x[:, age_column]),
    so censoring depends on one covariate (e.g. age); ``None`` leaves it
    covariate-free.
    """

    shape: float
    scale: float
    epsilon: float
    beta_age: float = 0.0
    age_column: int | None = None

    def __post_init__(self) -> None:
        for name in ("shape", "scale", "epsilon", "beta_age"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        for value in (self.shape, self.scale):
            if not (value > 0 and math.isfinite(value)):
                raise InputError("censoring shape and scale must be positive and finite")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise InputError("epsilon must be nonnegative and finite")
        if not math.isfinite(self.beta_age):
            raise InputError("beta_age must be finite")
        column = self.age_column
        if column is not None and (
            isinstance(column, bool) or not isinstance(column, (int, np.integer))
        ):
            raise InputError(f"age_column must be an integer or None, got {column!r}")

    def check_covariates(self, n_covariates: int) -> None:
        """Reject an age column that covariates with ``n_covariates`` columns lack."""
        if self.age_column is not None and not 0 <= self.age_column < n_covariates:
            raise InputError("age column out of range for the given covariates")

    def draw(self, event_times: np.ndarray, covariates: np.ndarray | None,
             rng: np.random.Generator) -> np.ndarray:
        if self.age_column is not None:
            if covariates is None:
                raise InputError("age-informed censoring requires covariates")
            x = _float_array(covariates, "covariates")
            self.check_covariates(x.shape[1] if x.ndim == 2 else 0)
        # Drawn even when epsilon == 0, so the stream layout is identical
        # across epsilon values.
        u = 1.0 - rng.random(event_times.size)
        if self.epsilon == 0:
            return np.full(event_times.size, np.inf)
        rate = self.epsilon * self.scale
        if self.age_column is not None:
            rate = rate * np.exp(self.beta_age * x[:, self.age_column])
        return (-np.log(u) / rate) ** (1.0 / self.shape)


@dataclass(frozen=True)
class UniformQuantileCensoring:
    """Uniform censoring on [min event time, (1 - epsilon) quantile of event times]."""

    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", as_float(self.epsilon, "epsilon"))
        if not 0.0 <= self.epsilon < 1.0:
            raise InputError("epsilon must lie in [0, 1) for uniform censoring")

    def check_covariates(self, n_covariates: int) -> None:
        """Uniform censoring ignores the covariates."""

    def draw(self, event_times: np.ndarray, covariates: np.ndarray | None,
             rng: np.random.Generator) -> np.ndarray:
        lo = float(event_times.min())
        hi = float(np.quantile(event_times, 1.0 - self.epsilon))
        if not hi > lo:
            raise InputError(
                "uniform censoring range is degenerate (all event times equal)"
            )
        return lo + (hi - lo) * rng.random(event_times.size)


CensoringMechanism = WeibullCensoring | UniformQuantileCensoring


def generate_event_times(
    params: WeibullPHParams, covariates: np.ndarray, rng_seed: int
) -> np.ndarray:
    """Uncensored event times by inverse-transform sampling of the Weibull PH model."""
    _check_kind(params, WeibullPHParams, "params")
    rng = _rng(rng_seed, "events")
    lp = params.linear_predictor(covariates)
    u = 1.0 - rng.random(lp.size)  # in (0, 1]; avoids log(0)
    return (-np.log(u) / (params.scale * np.exp(lp))) ** (1.0 / params.shape)


def generate_censoring(
    mechanism: CensoringMechanism,
    event_times: np.ndarray,
    covariates: np.ndarray | None,
    rng_seed: int,
) -> np.ndarray:
    """Censoring times under the chosen mechanism; may contain +inf (no censoring)."""
    if not isinstance(mechanism, (WeibullCensoring, UniformQuantileCensoring)):
        raise InputError(f"mechanism must be a WeibullCensoring or "
                         f"UniformQuantileCensoring, got {type(mechanism).__name__}")
    event_times = _float_array(event_times, "event times")
    return mechanism.draw(event_times, covariates, _rng(rng_seed, "censoring"))


def assemble(
    event_times: np.ndarray,
    censor_times: np.ndarray,
    covariates: np.ndarray | None = None,
) -> SurvivalDataset:
    """Observed data: T = min(event, censoring), event observed iff it is strictly first."""
    event_times = _float_array(event_times, "event times")
    censor_times = _float_array(censor_times, "censoring times")
    if event_times.shape != censor_times.shape:
        raise InputError("event and censoring time arrays must have equal length")
    times = np.minimum(event_times, censor_times)
    events = (event_times < censor_times).astype(np.int8)
    return SurvivalDataset(times=times, events=events, covariates=covariates)


def oracle_cindex(
    params: WeibullPHParams, covariates: np.ndarray, uncensored_times: np.ndarray
) -> float:
    """Ground-truth concordance: the linear predictor scored on uncensored times.

    Under proportional hazards S(t|x) falls strictly in the linear predictor
    (lp), so the true curves rank subjects as lp does.  Strict pairs are
    scored without censoring: the value is a bias reference.  An lp rounds by
    at most gamma_p * sum_j |x_j b_j|, gamma_p = p u / (1 - p u), u = 2^-53
    (Higham), so lps within twice the largest such bound tie, and pairs equal
    in exact arithmetic leave the comparable set.
    """
    _check_kind(params, WeibullPHParams, "params")
    x = _float_array(covariates, "covariates")
    lp = params.linear_predictor(x)
    pu = params.coefficients.size * 2.0**-53
    sizes = np.abs(x * params.coefficients).sum(axis=1)
    tol = 2.0 * pu / (1.0 - pu) * float(sizes.max(initial=0.0))
    ds = SurvivalDataset(times=uncensored_times, events=np.ones(lp.size, dtype=np.int8))
    policy = ConcordancePolicy(case_table=STRICT_PAIRS, tie_tolerance=tol)
    return concordance(ds, lp, policy)[0]
