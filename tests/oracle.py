"""Naive reference estimators used to check the vectorized engine."""

import math

import numpy as np

from survconcord import (
    InputError,
    RankRelation,
    StepFunction,
    SurvivalDataset,
    classify_pair,
    km_fit,
)
from survconcord.data import CASE_ORDER, as_risk_array
from survconcord.engine import (
    G_SOURCE_PROVIDED,
    ConcordancePolicy,
    _case_counts,
    _finalize,
    _rank_codes,
)
from survconcord.km import WEIGHT_UNIFORM, WEIGHT_UNO_SQUARED


BRUTE_FORCE_LIMIT = 2000


def brute_force_oracle(
    ds: SurvivalDataset,
    risks,
    policy: ConcordancePolicy,
    g: StepFunction | None = None,
) -> float:
    """Reference implementation: plain double loop over ordered pairs.

    Kept deliberately naive (scalar classification and accumulation, no
    shared intermediates with the vectorized path) so it can serve as an
    independent check; guarded to small inputs.
    """
    if ds.n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force reference is limited to n <= {BRUTE_FORCE_LIMIT}")
    m = as_risk_array(risks, ds.n)
    tau = policy.truncation.resolve(ds)
    tol = policy.tie_tolerance

    if policy.weight_scheme == WEIGHT_UNIFORM:
        g = None
    elif g is None:
        if policy.g_source == G_SOURCE_PROVIDED:
            raise InputError(
                "policy requires an externally fitted censoring distribution"
            )
        g = km_fit(ds, target="censoring")

    rules = {case: policy.case_table[case] for case in CASE_ORDER}
    times, events = ds.times, ds.events
    num = 0.0
    den = 0.0
    for i in range(ds.n):
        ti, di, mi = float(times[i]), int(events[i]), m[i]
        if tau is not None and not ti < tau:
            continue
        if g is None:
            wi = 1.0
        else:
            g_at = g.evaluate(ti)
            if policy.weight_scheme == WEIGHT_UNO_SQUARED:
                denom_w = g_at * g_at
            else:
                denom_w = g.evaluate_left(ti) * g_at
            wi = 1.0 / denom_w if denom_w > 0 else math.nan
        for j in range(ds.n):
            if i == j:
                continue
            diff = mi - m[j]
            if diff > tol:
                rel = RankRelation.GREATER
            elif diff < -tol:
                rel = RankRelation.LESS
            else:
                rel = RankRelation.TIED
            rule = rules[classify_pair(ti, di, float(times[j]), int(events[j]), rel)]
            if rule.comparable_weight == 0 or math.isnan(wi):
                continue
            den += wi * rule.comparable_weight
            num += wi * rule.comparable_weight * rule.credit
    return _finalize(num, den, policy.final_fold)


def td_brute_force_oracle(ds: SurvivalDataset, sm, policy: ConcordancePolicy) -> float:
    """Per-pair time-dependent reference with explicit step lookups.

    Ranks each ordered pair by both curves evaluated at the anchor's time
    (before the grid a curve is 1, beyond it the last value carries forward).
    Uniform weights only; truncation, tie tolerance and fold follow the policy.
    """
    if policy.weight_scheme != WEIGHT_UNIFORM:
        raise InputError("td brute force reference supports uniform weights only")
    grid = sm.grid.points
    tau = policy.truncation.resolve(ds)
    tol = policy.tie_tolerance

    def lookup(row, t):
        k = -1
        while k + 1 < len(grid) and grid[k + 1] <= t:
            k += 1
        return 1.0 if k < 0 else float(sm.probs[row, k])

    times, events = ds.times, ds.events
    num = den = 0.0
    for i in range(ds.n):
        ti = float(times[i])
        if tau is not None and not ti < tau:
            continue
        s_i = lookup(i, ti)
        for j in range(ds.n):
            if i == j:
                continue
            diff = lookup(j, ti) - s_i
            if diff > tol:
                rel = RankRelation.GREATER
            elif diff < -tol:
                rel = RankRelation.LESS
            else:
                rel = RankRelation.TIED
            rule = policy.case_table[
                classify_pair(ti, int(events[i]), float(times[j]), int(events[j]), rel)
            ]
            den += rule.comparable_weight
            num += rule.comparable_weight * rule.credit
    return _finalize(num, den, policy.final_fold)


def risk_ranks(m: np.ndarray, tol: float):
    """Rank codes of anchors a0..a1-1 by scalar risk against every subject."""

    def rel_block(a0: int, a1: int) -> np.ndarray:
        return _rank_codes(m[a0:a1, None] - m[None, :], tol)

    return rel_block


def dense_scalar_counts(times, events, risks, tol: float, block: int | None = None):
    """Scalar case counts from the dense pass: every pair's rank code, blockwise."""
    return _case_counts(times, events, risk_ranks(risks, tol), block)
