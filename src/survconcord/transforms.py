"""Reductions of survival matrices to scalar risks, and grid interpolation.

Scalar-risk estimators need the predicted survival distribution collapsed to
one number per subject.  Three reductions are provided: the event
probability at a fixed time, expected mortality (summed cumulative hazard
over the grid) and the negative restricted mean survival time.  Linear
interpolation onto a common grid makes predictions from models with
different native time resolutions comparable.
"""

from __future__ import annotations

import numpy as np

from .data import (
    ComputationError,
    InputError,
    SurvivalMatrix,
    TimeGrid,
    _check_kind,
    as_float,
)

#: Default evaluation horizon and common grid used for cross-model comparison;
#: both are overridable wherever they appear.
DEFAULT_HORIZON = 355.0


def default_common_grid() -> TimeGrid:
    return TimeGrid.regular(DEFAULT_HORIZON, step=1.0)


def interpolate(sm: SurvivalMatrix, dst: TimeGrid) -> SurvivalMatrix:
    """Linearly interpolate every row onto a new grid.

    Destination points below the source grid take the value 1 when the source
    grid starts after time zero (the curve is anchored at S(0) = 1) and the
    first source value otherwise; points beyond the source grid carry the
    last value forward.
    """
    _check_kind(sm, SurvivalMatrix, "sm")
    if not isinstance(dst, TimeGrid):
        raise InputError(f"interpolate onto a TimeGrid, got {type(dst).__name__}")
    src = sm.grid.points
    out = np.empty((sm.n, len(dst)))
    for i in range(sm.n):
        row = sm.probs[i]
        left = 1.0 if src[0] > 0 else row[0]
        out[i] = np.interp(dst.points, src, row, left=left, right=row[-1])
    return SurvivalMatrix(grid=dst, probs=out)


def risk_at_time(sm: SurvivalMatrix, t: float) -> np.ndarray:
    """Event probability by time t: 1 - S(t | x), with step lookup on the grid.

    A time before the first grid point would read every curve as 1 and tie
    every subject, so it is rejected like a non-finite time.
    """
    _check_kind(sm, SurvivalMatrix, "sm")
    t = as_float(t, "evaluation time")
    start = sm.grid.points[0]
    if not start <= t < np.inf:
        message = f"evaluation time must be finite and >= the grid start {start:g}"
        raise InputError(f"{message}, got {t!r}")
    return 1.0 - sm.probs[:, np.searchsorted(sm.grid.points, t, side="right") - 1]


def expected_mortality(sm: SurvivalMatrix) -> np.ndarray:
    """Cumulative hazard summed over the grid: sum_t -log S(t | x).

    Zero survival entries would make the sum infinite; they are replaced by
    the smallest positive entry of the whole matrix so that rankings across
    subjects stay consistent.
    """
    _check_kind(sm, SurvivalMatrix, "sm")
    probs = sm.probs
    positive = probs[probs > 0]
    if positive.size == 0:
        raise ComputationError("degenerate matrix: all survival probabilities are zero")
    eps = float(positive.min())
    adjusted = np.where(probs > 0, probs, eps)
    return -np.log(adjusted).sum(axis=1)


def neg_rmst(sm: SurvivalMatrix, t_star: float) -> np.ndarray:
    """Negative restricted mean survival time up to the horizon t_star.

    A left Riemann sum over [t0, t_star]: each grid point t < t_star
    contributes S(t | x) times the distance to the next grid point, clipped
    at t_star (the last grid point's rectangle extends to t_star).  Higher
    values mean higher risk, matching the direction of expected mortality.
    Supports non-uniform grids.  A t_star that is not finite would give every
    subject -inf and tie them all, so it is rejected like one not past the
    first grid point.
    """
    _check_kind(sm, SurvivalMatrix, "sm")
    t_star = as_float(t_star, "t_star")
    grid = sm.grid.points
    if not grid[0] < t_star < np.inf:
        raise InputError("t_star must be finite and exceed the first grid point")
    nxt = np.append(grid[1:], np.inf)
    include = grid < t_star
    dt = np.minimum(nxt[include], t_star) - grid[include]
    return -(sm.probs[:, include] * dt).sum(axis=1)
