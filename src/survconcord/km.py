"""Product-limit estimation of survival and censoring distributions.

The same Kaplan-Meier machinery estimates either the event-time survivor
function or, with the event indicator flipped, the censoring survivor
function G(t) = P(C > t) used for inverse-probability-of-censoring weights.
Left limits G(t-) are exposed because one weighting scheme needs the value
just before the observed time.
"""

from __future__ import annotations

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
    indicators is exactly the flipped-target fit.
    """
    _check_kind(ds, SurvivalDataset, "ds")
    if ds.n == 0:
        raise ComputationError("no records")
    if target == "event":
        d = ds.events == 1
    elif target == "censoring":
        d = ds.events == 0
    else:
        raise InputError(f"unknown target {target!r}")

    # return_index makes numpy sort stably, so each distinct time keeps its
    # first spelling (-0.0 or 0.0) in input order.
    uniq, _, inverse, size = np.unique(
        ds.times, return_index=True, return_inverse=True, return_counts=True
    )
    # At-risk count just before each distinct time; events of the chosen kind at it.
    at_risk = ds.n - np.cumsum(size) + size
    d_at = np.bincount(inverse[d], minlength=uniq.size)

    keep = d_at > 0
    # Exact rational accumulation: the estimate is a product of integer
    # ratios, so carrying it as a Fraction and rounding once per jump keeps
    # e.g. the no-censoring case identical to the empirical survivor function.
    surv = np.empty(int(keep.sum()))
    running = Fraction(1)
    for k, (d_k, n_k) in enumerate(zip(d_at[keep], at_risk[keep])):
        running *= Fraction(int(n_k) - int(d_k), int(n_k))
        surv[k] = float(running)
    return StepFunction(uniq[keep], surv)


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
