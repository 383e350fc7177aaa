"""Generalized pairwise concordance estimator.

One engine evaluates every estimator variant in this package in two steps.
First it counts: every ordered subject pair (i, j) is classified into the
case taxonomy of :mod:`survconcord.data`, giving exact integer counts per
anchor i and case.  The counts know nothing of any policy.  Then one reducer
applies a :class:`ConcordancePolicy` to them:

    denominator = sum_i [T_i < tau] W_i sum_c count(i, c) comparable_weight(c)
    numerator   = sum_i [T_i < tau] W_i sum_c count(i, c) comparable_weight(c) credit(c)

where the policy fixes the per-case weights, the tie tolerance for
predictions, the censoring-weight scheme (W_i), the time truncation (tau)
and a final folding rule.  Published estimators and software behaviours are
just different policies (see :mod:`survconcord.profiles`).

Ranking can come from a scalar risk per subject or, for the time-dependent
variant, from survival probabilities evaluated at the anchor subject's time;
both rank sources feed the same map and reducer, so the policy alone
decides how pairs count.  The counts depend only on the data, the rank
source and the tie tolerance, so policies scored on one dataset share one
counting pass per rank source and tolerance (:class:`_Scorer`).

Each rank source has one producer, and both take ``(times, events, ranks,
tol)`` and count geometry only: an ``(n, 18)`` array of each anchor's
partners, itself included, per cell (time sign, partner status, rank
relation).  Scalar risks are counted by sorting, in O(n log² n)
(:func:`_scalar_cells`); survival curves blockwise, in O(n²)
(:func:`_curve_cells`).  One map, :func:`_cases`, built from
``classify_pair``, turns cells into case counts and drops the self-pair;
the result equals classifying every pair.  Every weighted sum is a single
correctly rounded ``math.fsum``, so estimates do not depend on the producer
or the anchor order and are deterministic for a given input.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .data import (
    CASE_INDEX,
    CASE_ORDER,
    ComputationError,
    InputError,
    PairCase,
    RankRelation,
    SurvivalDataset,
    SurvivalMatrix,
    as_float,
    as_risk_array,
    classify_pair,
)
from .km import (
    WEIGHT_SCHEMES,
    WEIGHT_UNIFORM,
    StepFunction,
    ipcw_weights,
    km_fit,
)

TRUNC_NONE = "none"
TRUNC_VALUE = "value"
TRUNC_MAX_UNCENSORED = "max_uncensored"

FOLD_IDENTITY = "identity"
FOLD_MAX_COMPLEMENT = "max_with_complement"

G_SOURCE_TEST_SET = "test_set"
G_SOURCE_PROVIDED = "provided"

#: Cases that no estimator may count: the ordering is either uninformative or
#: already counted through the opposite pair orientation.
ALWAYS_EXCLUDED = (PairCase.C3, PairCase.C4, PairCase.C8)

#: The strict pairs every shipped case table counts alike: the anchor's event
#: is observed strictly first, and the pair earns credit when the anchor is
#: ranked riskier.
STRICT_PAIRS: Mapping[PairCase, tuple[float, float]] = MappingProxyType({
    PairCase.C1A: (1.0, 1.0),
    PairCase.C1B: (1.0, 0.0),
    PairCase.C2A: (1.0, 1.0),
    PairCase.C2B: (1.0, 0.0),
})

_REL_CODES = (RankRelation.GREATER, RankRelation.LESS, RankRelation.TIED)

# (delta_i, cell) -> case index, for the partner cell (sign(T_i - T_j) + 1) * 6
# + delta_j * 3 + rel; classify_pair, evaluated once, is the single source.
_CELL_CASE = np.array([
    [CASE_INDEX[classify_pair(ti, di, tj, dj, rel)]
     for ti, tj in ((0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
     for dj in (0, 1) for rel in _REL_CODES]
    for di in (0, 1)
], dtype=np.intp)


@dataclass(frozen=True)
class Truncation:
    """Restriction of comparable pairs to anchors with T_i strictly below tau."""

    mode: str = TRUNC_NONE
    value: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in (TRUNC_NONE, TRUNC_VALUE, TRUNC_MAX_UNCENSORED):
            raise InputError(f"unknown truncation mode {self.mode!r}")
        if self.value is not None:
            object.__setattr__(self, "value", as_float(self.value, "truncation value"))
        if self.mode == TRUNC_VALUE:
            if self.value is None or not math.isfinite(self.value):
                raise InputError("truncation value must be a finite number")
            if self.value <= 0:
                # Times are >= 0, so no anchor would lie strictly below tau.
                raise InputError(
                    f"truncation value must be positive, got {self.value!r}"
                )
        elif self.value is not None:
            raise InputError(f"truncation mode {self.mode!r} takes no value")

    def resolve(self, ds: SurvivalDataset) -> float | None:
        """Concrete tau for this dataset, or None when no truncation applies."""
        if self.mode == TRUNC_NONE:
            return None
        if self.mode == TRUNC_VALUE:
            return float(self.value)  # type: ignore[arg-type]
        uncensored = ds.times[ds.events == 1]
        if uncensored.size == 0:
            raise ComputationError(
                "cannot resolve truncation: dataset has no uncensored times"
            )
        return float(uncensored.max())


NO_TRUNCATION = Truncation()


@dataclass(frozen=True)
class CaseRule:
    """Contribution of one pair case: comparability weight and concordance credit."""

    comparable_weight: float
    credit: float = 0.0


def _normalize_case_table(
    table: Mapping[PairCase, CaseRule | tuple[float, float]]
) -> dict[PairCase, CaseRule]:
    full: dict[PairCase, CaseRule] = {}
    for case in CASE_ORDER:
        rule = table.get(case, (0.0, 0.0))
        if isinstance(rule, CaseRule):
            rule = (rule.comparable_weight, rule.credit)
        weight, credit = rule
        full[case] = CaseRule(
            as_float(weight, f"case {case.value} weight"),
            as_float(credit, f"case {case.value} credit"),
        )
    return full


@dataclass(frozen=True)
class ConcordancePolicy:
    """Complete specification of pair inclusion, credit, weighting and truncation.

    ``case_table`` maps each pair case to a comparability weight (>= 0, with
    0 meaning excluded) and a credit in [0, 1].  Predictions are tied when
    their absolute difference is at most ``tie_tolerance``.
    ``final_fold="max_with_complement"`` reports max(C, 1 - C).
    """

    case_table: Mapping[PairCase, CaseRule]
    tie_tolerance: float = 0.0
    weight_scheme: str = WEIGHT_UNIFORM
    g_source: str = G_SOURCE_TEST_SET
    truncation: Truncation = NO_TRUNCATION
    final_fold: str = FOLD_IDENTITY

    def __post_init__(self) -> None:
        table = _normalize_case_table(self.case_table)
        for case, rule in table.items():
            if rule.comparable_weight < 0 or not math.isfinite(rule.comparable_weight):
                raise InputError(f"case {case.value}: comparable weight must be >= 0")
            if rule.comparable_weight > 0 and not 0.0 <= rule.credit <= 1.0:
                raise InputError(f"case {case.value}: credit must lie in [0, 1]")
        for case in ALWAYS_EXCLUDED:
            if table[case].comparable_weight != 0:
                raise InputError(f"case {case.value} cannot be comparable")
        object.__setattr__(self, "case_table", MappingProxyType(table))
        tol = as_float(self.tie_tolerance, "tie tolerance")
        object.__setattr__(self, "tie_tolerance", tol)
        if not (tol >= 0 and math.isfinite(tol)):
            raise InputError("tie tolerance must be finite and nonnegative")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise InputError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.g_source not in (G_SOURCE_TEST_SET, G_SOURCE_PROVIDED):
            raise InputError(f"unknown g_source {self.g_source!r}")
        if self.final_fold not in (FOLD_IDENTITY, FOLD_MAX_COMPLEMENT):
            raise InputError(f"unknown final fold {self.final_fold!r}")

    @cached_property
    def _comparable_by_case(self) -> np.ndarray:
        return np.array(
            [self.case_table[c].comparable_weight for c in CASE_ORDER], dtype=float
        )

    @cached_property
    def _credit_by_case(self) -> np.ndarray:
        return np.array([self.case_table[c].credit for c in CASE_ORDER], dtype=float)

    def replace(self, **changes) -> "ConcordancePolicy":
        return dataclasses.replace(self, **changes)


def tie_weighted_policy(omega_o: float, omega_p: float, **knobs) -> ConcordancePolicy:
    """Policy for the classical tie-weight family.

    ``omega_o`` is the comparability weight of tied-time pairs where the
    anchor's event was observed and the other subject is censored;
    ``omega_p`` is the credit granted to tied predictions.  ``omega_o = 0``
    and ``omega_p = 0`` give the plain ignore-all-ties estimator.
    :class:`ConcordancePolicy` rejects a negative or non-finite ``omega_o``
    and an ``omega_p`` outside [0, 1].  ``knobs`` are the other
    :class:`ConcordancePolicy` fields, by keyword, with its defaults.
    """
    table = {
        **STRICT_PAIRS,
        PairCase.C1C: (1.0, omega_p),
        PairCase.C2C: (1.0, omega_p),
        PairCase.C6A: (omega_o, 1.0),
        PairCase.C6B: (omega_o, 0.0),
        PairCase.C6C: (omega_o, omega_p),
    }
    return ConcordancePolicy(case_table=table, **knobs)


def antolini_policy(adjusted: bool = False) -> ConcordancePolicy:
    """Case table for distribution-based ranking at the anchor's time.

    The plain variant counts tied-time pairs only when the anchor's event was
    observed against a censored partner, and gives tied survival values no
    credit.  The adjusted variant additionally credits tied predictions with
    0.5, includes tied-time event/event pairs and tied-time pairs whose
    anchor is the censored member (crediting the pair when the censored
    subject is ranked less risky).
    """
    # Both variants extend the tie-weighted table with omega_o = 1.
    policy = tie_weighted_policy(1.0, 0.5 if adjusted else 0.0)
    if not adjusted:
        return policy
    table = {
        **policy.case_table,
        PairCase.C5A: (1.0, 0.5),
        PairCase.C5B: (1.0, 0.5),
        PairCase.C5C: (1.0, 1.0),
        PairCase.C7A: (1.0, 0.0),
        PairCase.C7B: (1.0, 1.0),
        PairCase.C7C: (1.0, 0.5),
    }
    return ConcordancePolicy(case_table=table)


@dataclass(frozen=True)
class PairTally:
    """Per-case pair counts and weighted sums behind one estimate.

    ``case_counts`` holds raw (unweighted) pair counts per case after
    truncation, excluding self-pairs and pairs dropped for undefined weights;
    counts are kept even for cases the policy excludes so that decompositions
    can be computed afterwards.  ``numerator``/``denominator`` are the
    weighted credit and comparability totals; ``tau`` is the truncation time
    that was applied (None when untruncated).
    """

    case_counts: Mapping[str, int]
    case_comparable: Mapping[str, float]
    case_credit: Mapping[str, float]
    numerator: float
    denominator: float
    dropped_pairs: int
    anchors_beyond_grid: int
    policy: ConcordancePolicy
    tau: float | None

    def count(self, *labels: str) -> int:
        return sum(self.case_counts.get(lab, 0) for lab in labels)

    @property
    def per_case(self) -> dict[str, dict]:
        """Pairs, comparable weight and credit of every case that has any."""
        return {
            lab: {
                "pairs": self.case_counts[lab],
                "comparable": self.case_comparable[lab],
                "credit": self.case_credit[lab],
            }
            for lab in self.case_counts
            if self.case_counts[lab] > 0 or self.case_comparable[lab] > 0
        }


_BLOCK_CELL_BUDGET = 1 << 22  # pairs per anchor block, so temporaries stay modest


def _curve_cells(
    times: np.ndarray, events: np.ndarray, points: np.ndarray, probs: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Partner cells per anchor for survival curves, in O(n²).

    Both curves are read at the anchor's time, in the column of the grid
    ``points`` at or before it (1 before the first point, the last column
    beyond the grid), and the smaller survival value is the riskier: the
    anchor ranks greater when ``S_j(T_i) - S_i(T_i) > tol`` and less when it
    is below ``-tol``.  Every pair, self included, is counted in blocks of 8
    to 512 anchors sized to a fixed budget of pairs; cell codes are int8 to
    keep the block small.
    """
    n = times.size
    n_cells = _CELL_CASE.shape[1]
    block = int(np.clip(_BLOCK_CELL_BUDGET // max(n, 1), 8, 512))
    status = (3 * events).astype(np.int8)
    column = np.searchsorted(points, times, side="right") - 1
    cells = np.empty((n, n_cells), dtype=np.int64)
    for a0 in range(0, n, block):
        a1 = min(a0 + block, n)
        rows = np.arange(a1 - a0)
        # s[r, j] = S(T_anchor | x_j) for the anchor a0 + r.
        s = np.ascontiguousarray(probs[:, np.maximum(column[a0:a1], 0)].T)
        s[column[a0:a1] < 0] = 1.0
        s -= s[rows, a0 + rows][:, None]
        cell = np.where(s > tol, 0, np.where(s < -tol, 1, 2)).astype(np.int8)
        del s  # free the values before the time-sign temporaries
        cell += status
        cell += (np.sign(times[a0:a1, None] - times[None, :]).astype(np.int8) + 1) * 6
        key = rows[:, None] * n_cells + cell
        counts = np.bincount(key.ravel(), minlength=(a1 - a0) * n_cells)
        cells[a0:a1] = counts.reshape(a1 - a0, n_cells)
    return cells


def _cases(cells: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Case counts per anchor from its partner cells: the one map.

    Each cell goes into the case :data:`_CELL_CASE` gives for the anchor's
    event status, and the anchor's pair with itself, which a producer counts
    in its (tied, own status, tied) cell, is taken out.
    """
    ev = events.astype(np.intp)
    rows = np.arange(ev.size)
    lookup = _CELL_CASE[ev]
    cases = np.zeros((ev.size, len(CASE_ORDER)), dtype=np.int64)
    key = rows[:, None] * len(CASE_ORDER) + lookup
    np.add.at(cases.reshape(-1), key.reshape(-1), cells.reshape(-1))
    cases[rows, lookup[rows, 6 + 3 * ev + 2]] -= 1  # (tied, delta_i, tied)
    return cases


def _settle(
    bound: np.ndarray, holds: Callable[[np.ndarray, np.ndarray], np.ndarray], size: int
) -> np.ndarray:
    """Move each anchor's bound until ``holds(i, r)`` is true exactly for r < bound.

    ``holds`` must be true and then false along r = 0..size-1.  The starting
    guess is off only where a difference rounds across the tolerance, so the
    loop ends after a step or two.
    """
    idx = np.arange(bound.size)
    while idx.size:
        b = bound[idx]
        down = (b > 0) & ~holds(idx, np.maximum(b - 1, 0))
        up = (b < size) & holds(idx, np.minimum(b, size - 1))
        bound[idx[down]] -= 1
        bound[idx[up]] += 1
        idx = idx[down | up]
    return bound


def _prefix_counts(
    keys: np.ndarray, width: int, ends: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """``out[q]`` = number of positions k < ends[q] with keys[k] < thresholds[q].

    The prefix [0, e) is one aligned block of 2**level positions per set bit
    of e.  Per level the keys are sorted once within their blocks (sort key
    ``block * width + key``, keys in [0, width)) and every query using that
    level is answered by one ``searchsorted``: everything before a full
    block, minus the block's start.  Needles are searched in sorted order.
    """
    n = keys.size
    positions = np.arange(n)
    out = np.zeros(ends.size, dtype=np.int64)
    level = 0
    while (1 << level) <= n:
        use = np.flatnonzero((ends >> level) & 1)
        block = (ends[use] >> level) - 1
        needles = block * width + thresholds[use]
        order = np.argsort(needles)
        found = np.empty_like(needles)
        level_keys = np.sort((positions >> level) * width + keys)
        found[order] = np.searchsorted(level_keys, needles[order])
        out[use] += found - (block << level)
        level += 1
    return out


def _scalar_cells(
    times: np.ndarray, events: np.ndarray, risks: np.ndarray, tol: float
) -> np.ndarray:
    """Partner cells per anchor for scalar risks, in O(n log² n).

    Gives the same counts as classifying every pair, self included, with
    rank relation ``m_i - m_j > tol`` (greater) and ``m_i - m_j < -tol``
    (less), without forming the n x n pairs.  Each risk gets a dense rank
    among the distinct values; since ``m_i - v`` falls as v rises, anchor i
    ranks above the partner ranks [0, lo), below [hi, R) and tied in
    between.  Both bounds start from ``searchsorted`` and are then settled
    with the predicates themselves (``v < m_i - tol`` is not the same float
    test).

    Partners are keyed ``delta_j * R + rank`` in time order.  Counting keys
    below each bound, and so per event status and rank relation, takes three
    position ranges per anchor: all subjects, the prefix up to the end of its
    tied-time block (dyadic levels, :func:`_prefix_counts`) and the block
    itself (one sort keyed by block).  Later partners are all minus the
    prefix, earlier ones the prefix minus the block.
    """
    n = times.size
    values, rank = np.unique(risks, return_inverse=True)
    n_ranks = values.size
    # A difference that overflows to +-inf still compares right with tol.
    with np.errstate(over="ignore"):
        lo = _settle(
            np.searchsorted(values, risks - tol),
            lambda i, r: risks[i] - values[r] > tol,
            n_ranks,
        )
        hi = _settle(
            np.searchsorted(values, risks + tol, side="right"),
            lambda i, r: ~(risks[i] - values[r] < -tol),
            n_ranks,
        )

    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    start = np.searchsorted(sorted_times, times, side="left")
    end = np.searchsorted(sorted_times, times, side="right")
    width = 2 * n_ranks
    keys = (events.astype(np.intp) * n_ranks + rank)[order]
    censored = np.concatenate(([0], np.cumsum(keys < n_ranks)))
    # Key thresholds: censored below lo, below hi; all censored and events
    # below lo, below hi.
    thresholds = np.concatenate([lo, hi, n_ranks + lo, n_ranks + hi])

    total = np.searchsorted(np.sort(keys), thresholds).reshape(4, n)
    upto = _prefix_counts(keys, width, np.tile(end, 4), thresholds).reshape(4, n)
    block_of = np.concatenate(([0], np.cumsum(sorted_times[1:] != sorted_times[:-1])))
    block_keys = np.sort(block_of * width + keys)
    needles = np.tile(block_of[start] * width, 4) + thresholds
    tied = (np.searchsorted(block_keys, needles) - np.tile(start, 4)).reshape(4, n)
    # Partners per event status (censored, event) in each range.
    total_size = np.array([[censored[n]], [n - censored[n]]])
    upto_size = np.stack([censored[end], end - censored[end]])
    tied_size = upto_size - np.stack([censored[start], start - censored[start]])

    cells = np.empty((n, 3, 2, 3), dtype=np.int64)
    # Time sign index 0: partner later, 1: tied, 2: partner earlier.
    ranges = (
        (total - upto, total_size - upto_size),
        (tied, tied_size),
        (upto - tied, upto_size - tied_size),
    )
    for sign, (below, size) in enumerate(ranges):
        below_lo = np.stack([below[0], below[2] - size[0]])
        below_hi = np.stack([below[1], below[3] - size[0]])
        by_rel = np.stack([below_lo, size - below_hi, below_hi - below_lo])
        cells[:, sign] = by_rel.transpose(2, 1, 0)  # to (anchor, delta_j, rel)
    return cells.reshape(n, 18)  # explicit: numpy cannot infer a width when n == 0


def _reduce(
    counts: np.ndarray,
    times: np.ndarray,
    policy: ConcordancePolicy,
    weights: np.ndarray,
    tau: float | None,
    anchors_beyond_grid: int = 0,
) -> PairTally:
    """Apply a policy to per-anchor case counts: the one reducer.

    Anchors with T_i >= tau are left out.  An anchor whose weight is NaN
    (G = 0) drops its pairs in comparable cases; they are counted in
    ``dropped_pairs`` instead of ``case_counts``.  Every weighted sum is one
    correctly rounded ``math.fsum`` over anchors, so it does not depend on
    how the counts were produced.
    """
    cw = policy._comparable_by_case
    comparable = cw > 0
    active = np.ones(times.size, dtype=bool) if tau is None else times < tau
    undefined = active & np.isnan(weights)
    dropped_by_case = counts[undefined].sum(axis=0) * comparable
    case_counts = counts[active].sum(axis=0) - dropped_by_case

    live = active & ~undefined
    pair_comp = weights[live, None] * cw[comparable]
    pair_cred = pair_comp * policy._credit_by_case[comparable]
    live_counts = counts[live][:, comparable]
    comp_terms = live_counts * pair_comp
    cred_terms = live_counts * pair_cred
    comp = np.zeros(cw.size)
    cred = np.zeros(cw.size)
    comp[comparable] = [math.fsum(col) for col in comp_terms.T.tolist()]
    cred[comparable] = [math.fsum(col) for col in cred_terms.T.tolist()]

    def by_label(values, cast):
        return MappingProxyType({c.value: cast(v) for c, v in zip(CASE_ORDER, values)})

    return PairTally(
        case_counts=by_label(case_counts, int),
        case_comparable=by_label(comp, float),
        case_credit=by_label(cred, float),
        numerator=math.fsum(cred_terms.ravel().tolist()),
        denominator=math.fsum(comp_terms.ravel().tolist()),
        dropped_pairs=int(dropped_by_case.sum()),
        anchors_beyond_grid=anchors_beyond_grid,
        policy=policy,
        tau=tau,
    )


def _finalize(numerator: float, denominator: float, final_fold: str) -> float:
    if denominator == 0:
        raise ComputationError("no comparable pairs")
    estimate = numerator / denominator
    if final_fold == FOLD_MAX_COMPLEMENT:
        return max(estimate, 1.0 - estimate)
    return estimate


class _Scorer:
    """One dataset and its rank inputs, scored under any number of policies.

    Counts are kept per (rank source, tie tolerance) and the censoring fit is
    made at most once, on first use, so policies that differ only in what
    :func:`_reduce` applies share one counting pass.  ``risks`` (a validated
    array) feeds scalar ranking, ``curves`` (grid points, probs) ranking by
    survival curves.
    """

    def __init__(
        self,
        ds: SurvivalDataset,
        risks: np.ndarray | None = None,
        curves: tuple[np.ndarray, np.ndarray] | None = None,
        g: StepFunction | None = None,
    ) -> None:
        if curves is not None and curves[1].shape[0] != ds.n:
            raise InputError("survival matrix is not aligned with the dataset")
        self.ds = ds
        self.risks = risks
        self.curves = curves
        self.g = g
        self._counts: dict[tuple[bool, float], tuple[np.ndarray, int]] = {}
        self._censoring: StepFunction | None = None

    def score(
        self, policy: ConcordancePolicy, by_curves: bool = False
    ) -> tuple[float, PairTally]:
        """Estimate and tally under ``policy``, ranking by curves if ``by_curves``."""
        weights = self._weights(policy)
        tau = policy.truncation.resolve(self.ds)
        counts, beyond = self._counts_for(by_curves, policy.tie_tolerance)
        tally = _reduce(counts, self.ds.times, policy, weights, tau, beyond)
        return _finalize(tally.numerator, tally.denominator, policy.final_fold), tally

    def _weights(self, policy: ConcordancePolicy) -> np.ndarray:
        if policy.weight_scheme == WEIGHT_UNIFORM:
            return np.ones(self.ds.n)
        g = self.g
        if g is None:
            if policy.g_source == G_SOURCE_PROVIDED:
                raise InputError(
                    "policy requires an externally fitted censoring distribution"
                )
            if self._censoring is None:
                self._censoring = km_fit(self.ds, target="censoring")
            g = self._censoring
        return ipcw_weights(g, self.ds, policy.weight_scheme)

    def _counts_for(self, by_curves: bool, tol: float) -> tuple[np.ndarray, int]:
        """Case counts and the number of anchors beyond the curves' grid."""
        key = (by_curves, tol)
        if key not in self._counts:
            times, events = self.ds.times, self.ds.events
            if by_curves:
                points, probs = self.curves
                cells = _curve_cells(times, events, points, probs, tol)
                beyond = int(np.count_nonzero(times > points[-1]))
            else:
                cells, beyond = _scalar_cells(times, events, self.risks, tol), 0
            self._counts[key] = (_cases(cells, events), beyond)
        return self._counts[key]


def concordance(
    ds: SurvivalDataset,
    risks,
    policy: ConcordancePolicy,
    g: StepFunction | None = None,
) -> tuple[float, PairTally]:
    """Concordance estimate for scalar risks under a policy.

    ``g`` optionally supplies a fitted censoring survivor function; when the
    policy weights pairs and ``g`` is omitted, the censoring distribution is
    fitted on ``ds`` itself (``g_source="test_set"``), or an error is raised
    for policies that require an external fit.
    """
    return _Scorer(ds, risks=as_risk_array(risks, ds.n), g=g).score(policy)


def concordance_td(
    ds: SurvivalDataset,
    sm: SurvivalMatrix,
    policy: ConcordancePolicy,
    g: StepFunction | None = None,
) -> tuple[float, PairTally]:
    """Time-dependent concordance ranking by survival at the anchor's time.

    For each ordered pair the predicted curves of both subjects are read at
    the anchor's observed time, in the grid column at or before it (1 before
    the grid); the subject with the smaller survival value is ranked riskier.
    Everything else (case table, tie tolerance, weights, truncation, fold and
    ``g``) works as in :func:`concordance`; :func:`antolini_policy` gives the
    plain and the tie-adjusted published variants.  Anchor times beyond the
    grid evaluate at the last grid point and are flagged in the tally.
    """
    scorer = _Scorer(ds, curves=(sm.grid.points, sm.probs), g=g)
    return scorer.score(policy, by_curves=True)


@dataclass(frozen=True)
class DecompositionReport:
    """Weighted-average breakdown of a tie-weighted estimate.

    The estimate splits into a strict-ordering block (pairs where the anchor
    fails strictly first) and a tied-time block (anchor event observed, other
    censored), mixed with weight ``alpha``.  Each block separates the fully
    concordant share from the tied-prediction share that ``omega_p``
    credits.  Blocks without pairs are reported as None and contribute
    nothing.
    """

    alpha: float
    strict_concordant: float | None
    strict_tied_predictions: float | None
    tied_time_concordant: float | None
    tied_time_tied_predictions: float | None
    omega_o: float
    omega_p: float
    recombined: float


def decompose(tally: PairTally) -> DecompositionReport:
    """Split a uniform-weight tie-family tally into its weighted-average blocks.

    Requires a tally produced with uniform weights by a policy of the
    :func:`tie_weighted_policy` family, whose ``omega_o`` (the weight of case
    6A) and ``omega_p`` (the credit of case 1C) it reads; recombining the
    blocks reproduces the original estimate.
    """
    policy = tally.policy
    if policy.weight_scheme != WEIGHT_UNIFORM:
        raise InputError("decomposition is defined for uniform weights only")
    omega_o = policy.case_table[PairCase.C6A].comparable_weight
    omega_p = policy.case_table[PairCase.C1C].credit
    foreign = InputError("tally was not produced by a tie-weighted policy")
    if not 0.0 <= omega_p <= 1.0:  # only an excluded case 1C can carry it
        raise foreign
    expected = tie_weighted_policy(omega_o, omega_p)
    for case in CASE_ORDER:
        got, want = policy.case_table[case], expected.case_table[case]
        bad_weight = got.comparable_weight != want.comparable_weight
        bad_credit = want.comparable_weight > 0 and got.credit != want.credit
        if bad_weight or bad_credit:
            raise foreign

    sum_a = tally.count("1A", "1B", "1C", "2A", "2B", "2C")
    sum_ac = tally.count("1A", "2A")
    sum_ad = tally.count("1C", "2C")
    sum_b = tally.count("6A", "6B", "6C")
    sum_bc = tally.count("6A")
    sum_bd = tally.count("6C")

    denom = sum_a + omega_o * sum_b
    if denom == 0:
        raise ComputationError("no comparable pairs")
    alpha = sum_a / denom

    strict_c = sum_ac / sum_a if sum_a else None
    strict_d = sum_ad / sum_a if sum_a else None
    tied_c = sum_bc / sum_b if sum_b else None
    tied_d = sum_bd / sum_b if sum_b else None

    block_strict = (strict_c + omega_p * strict_d) if sum_a else 0.0
    block_tied = (tied_c + omega_p * tied_d) if sum_b else 0.0
    recombined = alpha * block_strict + (1.0 - alpha) * block_tied

    return DecompositionReport(
        alpha=alpha,
        strict_concordant=strict_c,
        strict_tied_predictions=strict_d,
        tied_time_concordant=tied_c,
        tied_time_tied_predictions=tied_d,
        omega_o=omega_o,
        omega_p=omega_p,
        recombined=recombined,
    )

