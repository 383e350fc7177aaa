"""Product-limit estimation of survival and censoring distributions.

The same Kaplan-Meier machinery estimates either the event-time survivor
function or, with the event indicator flipped, the censoring survivor
function G(t) = P(C > t) used for inverse-probability-of-censoring weights.
Left limits G(t-) are exposed because one weighting scheme needs the value
just before the observed time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .data import (
    ComputationError,
    InputError,
    SurvivalDataset,
    _check_kind,
    _float_array,
)

#: Allowed weighting schemes for pairwise estimators.
WEIGHT_UNIFORM = "uniform"
WEIGHT_UNO_SQUARED = "uno_squared"  # 1 / G(T_i)^2
WEIGHT_PEC_PRODUCT = "pec_product"  # 1 / (G(T_i-) * G(T_i))
WEIGHT_SCHEMES = (WEIGHT_UNIFORM, WEIGHT_UNO_SQUARED, WEIGHT_PEC_PRODUCT)


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nonincreasing step function equal to 1 before the first jump.

    ``values[k]`` applies on the half-open interval
    [jump_times[k], jump_times[k+1]); beyond the last jump the final value is
    carried forward.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        jt = _float_array(self.jump_times, "jump_times")
        vals = _float_array(self.values, "values")
        if jt.ndim != 1 or vals.shape != jt.shape:
            raise InputError("jump_times and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(jt)) and np.all(np.diff(jt) > 0)):
            raise InputError("jump times must be finite and strictly increasing")
        # Written so that a NaN value fails every comparison and is rejected.
        if not (np.all(np.diff(vals) <= 0) and np.all((vals >= 0) & (vals <= 1))):
            raise InputError("values must be nonincreasing within [0, 1]")
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "values", vals)

    def evaluate(self, t):
        """Right-continuous value at t (vectorized)."""
        return self._eval(t, side="right")

    def evaluate_left(self, t):
        """Limit from below at t, i.e. the value just before t."""
        return self._eval(t, side="left")

    def _eval(self, t, side):
        t = _float_array(t, "evaluation time")
        if np.isnan(t).any():
            raise InputError("step function evaluated at a NaN time")
        out = np.concatenate(([1.0], self.values))[
            np.searchsorted(self.jump_times, t, side=side)
        ]
        return float(out) if t.ndim == 0 else out


def km_fit(ds: SurvivalDataset, target: str = "event") -> StepFunction:
    """Kaplan-Meier product-limit fit.

    ``target="event"`` estimates the event-time survivor function;
    ``target="censoring"`` flips the event indicator so censorings act as the
    events, yielding the censoring survivor function G.  At tied times the
    risk set counts every subject with T >= t, so the fit on flipped
    indicators is exactly the flipped-target fit.  This is the fit with
    every subject taken once; a bootstrap resample reuses the grouping of
    tied times (:func:`_time_groups`) and fits from its multiplicities
    (:func:`_km_from_groups`).
    """
    _check_kind(ds, SurvivalDataset, "ds")
    if target not in ("event", "censoring"):
        raise InputError(f"unknown target {target!r}")
    hits = ds.events == (1 if target == "event" else 0)
    return _km_from_groups(_time_groups(ds.times), hits, np.ones(ds.n, dtype=np.int64))


def _time_groups(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct times in increasing order and each subject's place among them."""
    # return_index makes numpy sort stably, so each distinct time keeps its
    # first spelling (-0.0 or 0.0) in input order.
    uniq, _, inverse = np.unique(times, return_index=True, return_inverse=True)
    return uniq, inverse


def _km_from_groups(
    groups: tuple[np.ndarray, np.ndarray], hits: np.ndarray, mult: np.ndarray
) -> StepFunction:
    """The product-limit fit with subject i taken ``mult[i]`` times.

    ``groups`` is :func:`_time_groups` of the subjects' times and ``hits``
    marks the subjects whose observed time is an event of the fitted kind.
    The at-risk and event counts are the integers a dataset holding those
    copies would give, so the fit equals the fit on it, except that a time
    spelt both -0.0 and 0.0 keeps the spelling it has among all the
    subjects.
    """
    uniq, inverse = groups
    size = np.bincount(inverse, weights=mult, minlength=uniq.size).astype(np.int64)
    d_at = np.bincount(
        inverse[hits], weights=mult[hits], minlength=uniq.size
    ).astype(np.int64)
    if size.sum() == 0:
        raise ComputationError("no records")
    # At-risk count just before each distinct time; events of the chosen kind at it.
    at_risk = size[::-1].cumsum()[::-1]
    keep = d_at > 0
    values = _product_values((at_risk - d_at)[keep].tolist(), at_risk[keep].tolist())
    return StepFunction(uniq[keep], np.array(values, dtype=float))


#: Fixed-point bits of the bounds that carry a Kaplan-Meier product.
_PRODUCT_BITS = 256


def _product_values(numerators: list[int], denominators: list[int]) -> list[float]:
    """Each running product of ``numerators[k] / denominators[k]``, rounded once.

    The product V is a ratio of integers, so it is carried as two integers
    L <= V * 2**P <= U, rounded down and up at every factor.  Where L / 2**P
    and U / 2**P round to the same float, so does V (Ziv's rounding test);
    the no-censoring case stays identical to the empirical survivor
    function.  From the first factor where they differ, V is carried
    exactly as a Fraction.
    """
    scale = 1 << _PRODUCT_BITS
    low = high = scale
    values: list[float] = []
    for k, (num, den) in enumerate(zip(numerators, denominators)):
        low, high = low * num // den, -(-high * num // den)
        value = low / scale
        if value != high / scale:
            running = Fraction(math.prod(numerators[:k]), math.prod(denominators[:k]))
            for num, den in zip(numerators[k:], denominators[k:]):
                running *= Fraction(num, den)
                values.append(float(running))
            break
        values.append(value)
    return values


def ipcw_weights(
    g: StepFunction | None, ds: SurvivalDataset, scheme: str
) -> np.ndarray:
    """Per-subject censoring weights from a fitted censoring survivor function.

    Returns 1/G(T_i)^2 for ``uno_squared`` or 1/(G(T_i-) G(T_i)) for
    ``pec_product``; ``uniform`` gives all ones and reads no ``g``.  Subjects
    whose weight is not finite (G = 0, or a G so small that the reciprocal
    overflows) get NaN: their pairs are dropped (and counted) by the
    estimator instead of contributing unbounded weights.
    """
    _check_kind(ds, SurvivalDataset, "ds")
    if scheme == WEIGHT_UNIFORM:
        return np.ones(ds.n)
    if scheme not in WEIGHT_SCHEMES:
        raise InputError(f"unknown weight scheme {scheme!r}")
    if not isinstance(g, StepFunction):
        raise InputError(f"{scheme} weights need a StepFunction g, got {type(g).__name__}")
    g_at = g.evaluate(ds.times)
    if scheme == WEIGHT_UNO_SQUARED:
        denom = g_at * g_at
    else:
        denom = g.evaluate_left(ds.times) * g_at
    with np.errstate(divide="ignore", over="ignore"):
        weights = 1.0 / denom
    return np.where(np.isfinite(weights), weights, np.nan)
