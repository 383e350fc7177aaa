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
counting pass per rank source and tolerance (:class:`_Draw`), and one exact
sum per case column per (rank source, tolerance, weight scheme, tau)
(:class:`_ColumnSet`), found as integers when every weight is 1.  Scoring a
policy on them is integer arithmetic: a case of weight 1 and credit 0, 1/2
or 1 reads a shared sum, exactly halved for 1/2, and any other factor gets
column sums of its own.

A draw takes each subject some number of times: once for the data itself,
as often as a bootstrap resample draws it otherwise.  Each rank source has
one producer, and both count geometry only: an ``(n, 18)`` array of each
subject's partners, itself included and each taken as often as drawn, per
cell (time sign, partner status, rank relation).  Scalar risks are sorted
once per tie tolerance, in O(n log² n) (:func:`_scalar_build`), and each
draw reads its counts off prefix sums of its multiplicities, in O(n log n)
(:func:`_scalar_read`); survival curves are counted blockwise, in O(n²)
(:func:`_curve_cells`).  One map, :func:`_cases`, built from
``classify_pair``, turns cells into case counts and drops the self-pair;
the result equals classifying every pair of the drawn rows.  Every
weighted sum is the exact sum of its float terms, each row taken as often
as drawn: an integer count of one unit, 2**-1126, rounded once
(:func:`_exact_sums`), so estimates do not depend on the producer or the
anchor order and are deterministic for a given input.

The censoring weights W_i read G(t) = P(C > t), the Kaplan-Meier fit with
the event indicator flipped (:func:`km_fit`); its left limits G(t-) serve
the ``pec_product`` scheme, and each draw fits G from its multiplicities
(:func:`_km_from_groups`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

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
    _check_kind,
    _float_array,
    as_float,
    as_risk_array,
    classify_pair,
)

TRUNC_NONE = "none"
TRUNC_VALUE = "value"
TRUNC_MAX_UNCENSORED = "max_uncensored"

FOLD_IDENTITY = "identity"
FOLD_MAX_COMPLEMENT = "max_with_complement"

G_SOURCE_TEST_SET = "test_set"
G_SOURCE_PROVIDED = "provided"

#: Allowed weighting schemes for pairwise estimators.
WEIGHT_UNIFORM = "uniform"
WEIGHT_UNO_SQUARED = "uno_squared"  # 1 / G(T_i)^2
WEIGHT_PEC_PRODUCT = "pec_product"  # 1 / (G(T_i-) * G(T_i))
WEIGHT_SCHEMES = (WEIGHT_UNIFORM, WEIGHT_UNO_SQUARED, WEIGHT_PEC_PRODUCT)

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

_REL_CODES = (RankRelation.GREATER, RankRelation.TIED, RankRelation.LESS)

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

    def resolve(self, uncensored: np.ndarray) -> float | None:
        """Concrete tau for data with these uncensored times, or None when no
        truncation applies."""
        if self.mode == TRUNC_NONE:
            return None
        if self.mode == TRUNC_VALUE:
            return float(self.value)  # type: ignore[arg-type]
        if uncensored.size == 0:
            raise ComputationError(
                "cannot resolve truncation: dataset has no uncensored times"
            )
        return float(uncensored.max())


class CaseRule(NamedTuple):
    """Contribution of one pair case: comparability weight and concordance credit."""

    comparable_weight: float
    credit: float = 0.0


def _normalize_case_table(
    table: Mapping[PairCase, CaseRule | tuple[float, float]]
) -> dict[PairCase, CaseRule]:
    if not isinstance(table, Mapping):
        raise InputError(f"case table must be a mapping, got {type(table).__name__}")
    for key in table:
        if not isinstance(key, PairCase):
            raise InputError(
                f"case table key {key!r} is not a PairCase; write e.g. PairCase('1A')"
            )
    full: dict[PairCase, CaseRule] = {}
    for case in CASE_ORDER:
        rule = table.get(case, (0.0, 0.0))
        try:
            weight, credit = rule
        except (TypeError, ValueError):
            raise InputError(
                f"case {case.value} must be (weight, credit), got {rule!r}"
            ) from None
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
    truncation: Truncation = Truncation()
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
    def _rules(self) -> tuple[tuple[int, float, float], ...]:
        """(case index, comparable weight, credit) of every comparable case."""
        return tuple(
            (k, rule.comparable_weight, rule.credit)
            for k, rule in enumerate(self.case_table[c] for c in CASE_ORDER)
            if rule.comparable_weight > 0
        )

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
    tol: float, mult: np.ndarray,
) -> np.ndarray:
    """Partner cells per anchor for survival curves, with partner j taken
    ``mult[j]`` times, in O(n²).

    Both curves are read at the anchor's time, in the column of the grid
    ``points`` at or before it (1 before the first point, the last column
    beyond the grid), and the smaller survival value is the riskier: the
    anchor ranks greater when ``S_j(T_i) - S_i(T_i) > tol`` and less when it
    is below ``-tol``.  Every pair, self included, is counted in blocks of 8
    to 512 anchors sized to a fixed budget of pairs; cell codes are built in
    int8 from boolean views to keep the block small.  Each block takes one
    ``np.bincount`` with every partner weighted by its multiplicity, so a
    partner taken no times adds nothing and one taken k times adds k; the
    float64 bins are exact below 2**53.  When every subject is taken once
    (the data itself) the count is unweighted, with no per-pair weights.
    Anchors with ``mult[i] = 0`` are skipped and keep a zero row.
    """
    n = times.size
    n_cells = _CELL_CASE.shape[1]
    block = int(np.clip(_BLOCK_CELL_BUDGET // max(n, 1), 8, 512))
    status = (3 * events + 7).astype(np.int8)  # 3 * delta_j; 7 lifts both signs to 0..2
    column = np.searchsorted(points, times, side="right") - 1
    weight = None if np.all(mult == 1) else mult.astype(float)
    anchors = np.flatnonzero(mult)
    cells = np.zeros((n, n_cells), dtype=np.int64)
    for a0 in range(0, anchors.size, block):
        batch = anchors[a0:a0 + block]
        rows = np.arange(batch.size)
        # s[r, j] = S(T_anchor | x_j) for the anchor batch[r].
        s = np.ascontiguousarray(probs[:, np.maximum(column[batch], 0)].T)
        s[column[batch] < 0] = 1.0
        s -= s[rows, batch][:, None]
        # Rank relation (less - greater) and time sign, each -1, 0 or 1.
        cell = (s < -tol).view(np.int8) - (s > tol).view(np.int8)
        del s  # free the values before the time-sign temporaries
        t = times[batch, None]
        cell += 6 * ((t > times).view(np.int8) - (t < times).view(np.int8))
        cell += status
        key = rows[:, None] * n_cells + cell
        pair_weights = None if weight is None else np.broadcast_to(weight, key.shape).ravel()
        counts = np.bincount(key.ravel(), weights=pair_weights, minlength=batch.size * n_cells)
        del key, pair_weights
        cells[batch] = counts.reshape(batch.size, n_cells)
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
    cases[rows, lookup[rows, 6 + 3 * ev + 1]] -= 1  # (tied, delta_i, tied)
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


class _ScalarIndex(NamedTuple):
    """What counting scalar risks takes from the data alone (:func:`_scalar_build`).

    Every count :func:`_scalar_read` needs is a multiplicity total over a
    range of one fixed order of the subjects; ``orders[t]`` lists them in
    order t.  With P the prefix sums of the multiplicities in each order,
    flattened with n + 1 positions per order, column k of ``bounds`` holds
    seven flat positions in one sorted range: its start, the ends of the
    keys below lo, hi, R, R + lo and R + hi, and its end.  Between
    successive bounds lie the partners of one event status and rank
    relation.  Columns [0, n) are the anchors' ranges over all subjects,
    columns [n, 2n) their tied-time blocks, and columns ``2n + offsets[i]``
    up to ``2n + offsets[i + 1]`` sum to anchor i's prefix up to the end of
    its block.
    """

    orders: np.ndarray
    bounds: np.ndarray
    offsets: np.ndarray


def _scalar_build(
    times: np.ndarray, events: np.ndarray, risks: np.ndarray, tol: float
) -> _ScalarIndex:
    """Sort scalar risks once, in O(n log² n), for :func:`_scalar_read`.

    Each risk gets a dense rank among the distinct values; since ``m_i - v``
    falls as v rises, anchor i ranks above the partner ranks [0, lo), below
    [hi, R) and tied in between, with rank relation ``m_i - m_j > tol``
    (greater) and ``m_i - m_j < -tol`` (less).  Both bounds start from
    ``searchsorted`` and are then settled with the predicates themselves
    (``v < m_i - tol`` is not the same float test).

    Partners are keyed ``delta_j * R + rank`` in time order, so the keys
    below lo, hi, R, R + lo, R + hi and 2R count them per event status and
    rank relation.  Each anchor counts them in three ranges of time
    positions: all subjects (one order by key), its tied-time block (one
    order by block, then key) and the prefix up to the end of that block.
    The prefix [0, e) is one aligned block of 2**level positions per set bit
    of e; each level orders its blocks by key, merging the sorted blocks of
    the level below, and its anchors by block, then risk, merging likewise.
    Anchors in that order search their thresholds, which rise with the
    risk, in sorted order; below R and 2R take no search, since within a
    range the censored come first.
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
    _, block, size = np.unique(times, return_inverse=True, return_counts=True)
    end = np.cumsum(size)[block]
    width = 2 * n_ranks
    keys = (events.astype(np.intp) * n_ranks + rank)[order]
    censored_before = np.concatenate(([0], np.cumsum(keys < n_ranks)))
    thresholds = np.stack([lo, hi, n_ranks + lo, n_ranks + hi])

    # Ranges in anchor order: all subjects, the block, then one per level
    # whose bit is set in the block's end.  Positions are stored as int32
    # where they fit, which halves the structure.
    levels = range(n.bit_length())
    n_taps = sum(((end >> level) & 1 for level in levels), np.zeros(n, dtype=np.intp))
    offsets = np.concatenate(([0], np.cumsum(n_taps)))
    position = np.int32 if (2 + len(levels)) * (n + 1) < 2**31 else np.intp
    orders = np.empty((2 + len(levels), n), dtype=position)
    bounds = np.empty((7, 2 * n + offsets[-1]), dtype=position)

    def add(row, columns, positions, sorted_keys, anchors, base, start, stop):
        """Order ``row`` and the bounds in it, for ``anchors`` whose range,
        keyed ``base + key`` and sorted, is [start, stop) of ``positions``."""
        orders[row] = order[positions]
        at = row * (n + 1)
        found = np.empty((7, anchors.size), dtype=np.intp)
        found[[1, 2, 4, 5]] = np.searchsorted(sorted_keys, base + thresholds[:, anchors])
        found[0] = start
        found[3] = start + censored_before[stop] - censored_before[start]
        found[6] = stop
        bounds[:, columns] = at + found

    anchors = np.argsort(rank, kind="stable")
    by_key = np.argsort(keys, kind="stable")
    add(0, anchors, by_key, keys[by_key], anchors, 0, 0, n)
    block_keys = block[order] * width + keys
    by_block = np.argsort(block_keys, kind="stable")
    anchors = anchors[np.argsort(block[anchors], kind="stable")]
    add(1, n + anchors, by_block, block_keys[by_block], anchors, block[anchors] * width,
        end[anchors] - size[block[anchors]], end[anchors])

    slot = 2 * n + offsets[:-1]
    positions = np.arange(n)
    for level in levels:
        level_keys = (positions >> level) * width + keys[positions]
        if level:
            by = np.argsort(level_keys, kind="stable")
            positions, level_keys = positions[by], level_keys[by]
            anchor_keys = (end[anchors] >> level) * n_ranks + rank[anchors]
            anchors = anchors[np.argsort(anchor_keys, kind="stable")]
        use = anchors[((end[anchors] >> level) & 1).astype(bool)]
        last = (end[use] >> level) - 1  # the last whole block before the end
        add(2 + level, slot[use], positions, level_keys, use, last * width,
            last << level, (last + 1) << level)
        slot[use] += 1
    return _ScalarIndex(orders, bounds, offsets)


#: Anchors whose prefix ranges are read at a time, so that the counts stay modest.
_READ_ANCHORS = 1 << 14


def _scalar_read(index: _ScalarIndex, mult: np.ndarray) -> np.ndarray:
    """Partner cells per anchor for scalar risks, with partner j taken ``mult[j]`` times.

    Gives the same counts as classifying every pair of the data with
    subject i taken ``mult[i]`` times, an anchor's own copies included, for
    one copy of each subject: its self cell holds ``mult[i]``.  Each count
    is read off prefix sums, in O(n log n): later partners are all minus the
    prefix up to the block's end, earlier ones that prefix minus the block.
    """
    n = mult.size
    prefix = np.zeros((index.orders.shape[0], n + 1), dtype=np.int64)
    np.cumsum(mult[index.orders], axis=1, out=prefix[:, 1:])
    prefix = prefix.ravel()

    def between(columns: slice) -> np.ndarray:
        """Partners between successive bounds of these ranges."""
        counts = prefix[index.bounds[:, columns]]
        for k in range(6, 0, -1):  # in place, from the last bound down
            counts[k] -= counts[k - 1]
        return counts[1:]

    total, tied = between(slice(0, n)), between(slice(n, 2 * n))
    upto = np.empty_like(total)
    offsets = index.offsets
    for a0 in range(0, n, _READ_ANCHORS):
        a1 = min(a0 + _READ_ANCHORS, n)
        taps = between(slice(2 * n + offsets[a0], 2 * n + offsets[a1]))
        upto[:, a0:a1] = np.add.reduceat(taps, offsets[a0:a1] - offsets[a0], axis=1)
    # Time sign (partner later, tied, earlier), then delta_j and rank relation.
    cells = np.stack([total - upto, tied, upto - tied])
    return cells.transpose(2, 0, 1).reshape(n, 18)


#: Case labels in case order, the keys of every tally mapping.
_CASE_LABELS = tuple(c.value for c in CASE_ORDER)

#: Rows, counted with their multiplicities, below which a float64 sum of
#: mantissa halves (each under 2**27) is exact.
_EXACT_ROWS = 1 << 26

#: Exact sums count units of 2**-_UNIT_BITS, of which every float64 is a whole
#: number: ``np.frexp`` puts no 53-bit mantissa lower, subnormals included.
_UNIT_BITS = 1126


def _check_rows(mult: np.ndarray) -> None:
    """Refuse more rows, counted with their multiplicities, than sum exactly."""
    n_rows = int(mult.sum())
    if n_rows >= _EXACT_ROWS:
        raise ComputationError(f"cannot sum {n_rows} anchors exactly (limit {_EXACT_ROWS})")


def _exact_sums(terms: np.ndarray, mult: np.ndarray) -> list[int]:
    """Exact column sums of ``terms`` in units, row i taken ``mult[i]`` times.

    Every finite float is M * 2**(E - 53) for an integer |M| < 2**53
    (``np.frexp``).  M splits into a high half below 2**27 and a low half
    below 2**26, and one ``np.bincount`` per half, weighted by the
    multiplicities, sums them per (column, E).  With fewer than 2**26 rows
    in all each such sum is an integer below 2**53, so the float64 sums are
    exact; the bins are then joined as Python integers.
    """
    cols = terms.shape[1]
    _check_rows(mult)
    if not np.all(np.isfinite(terms)):
        raise ComputationError("a weighted pair term is not finite")
    if terms.size == 0:
        return [0] * cols
    frac, exp = np.frexp(terms)
    # Scaled, split and keyed in place: fewer temporaries keep the heap small.
    # Every step is exact in float64.
    frac *= 2.0**53
    high = frac * 2.0**-26
    np.floor(high, out=high)
    frac -= high * 2.0**26
    copies = mult.astype(float)[:, None]
    frac *= copies
    high *= copies
    low = int(exp.min())
    width = int(exp.max()) - low + 1
    exp -= low
    exp += np.arange(cols, dtype=exp.dtype) * width
    key = exp.ravel()
    bins = np.concatenate([
        np.bincount(key, weights=half.ravel(), minlength=cols * width).reshape(cols, width)
        for half in (frac, high)
    ], axis=1)
    shifts = np.concatenate((np.arange(width), np.arange(26, 26 + width))).astype(object)
    ints = (bins.astype(np.int64).astype(object) << shifts).sum(axis=1)
    return (ints << (low - 53 + _UNIT_BITS)).tolist()  # into units once per column


def _rounded(value: int) -> float:
    """``value`` units rounded once to the nearest float."""
    try:
        return value / (1 << _UNIT_BITS)
    except OverflowError:
        raise ComputationError("a weighted pair sum is not finite") from None


class _ColumnSet:
    """One draw's case counts, masked and weighted once for every policy
    that shares its rank source, tie tolerance, weight scheme and resolved tau.

    Row i stands for ``mult[i]`` anchors; a row drawn no times adds nothing,
    not even a term.  Anchors with T_i >= tau are left out, and an anchor
    whose weight is NaN (G = 0) is undefined; the other kept anchors are
    live.  Built once are the drawn case totals of the kept and of the
    undefined anchors, and the base sum of every countable case in units:
    the exact sum of count * w over the live anchors (:func:`_exact_sums`),
    or one int64 product, shifted into units, when every live weight is
    exactly 1.  A case whose base terms are not all finite has no base sum.
    """

    def __init__(
        self,
        counts: np.ndarray,
        times: np.ndarray,
        weights: np.ndarray,
        tau: float | None,
        mult: np.ndarray,
        anchors_beyond_grid: int,
    ) -> None:
        active = np.ones(times.size, dtype=bool) if tau is None else times < tau
        undefined = active & np.isnan(weights)
        live = active & ~undefined & (mult > 0)
        self.drawn, self.undefined, base = (
            (np.stack((active, undefined, live)) * mult) @ counts
        ).tolist()
        self.counts, self.weights, self.mult, self.live = counts, weights, mult, live
        self.tau, self.anchors_beyond_grid = tau, anchors_beyond_grid
        w = weights[live]
        # Halving count * w, an integer times w >= 1, leaves it normal and exact.
        self.exact_halves = bool(np.all(w >= 1.0))
        self.base: list[int | None]
        if np.all(w == 1.0):
            _check_rows(mult[live])
            self.base = [b << _UNIT_BITS for b in base]
            return
        countable = [k for k, c in enumerate(CASE_ORDER) if c not in ALWAYS_EXCLUDED]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite cases get no base
            terms = counts[live][:, countable] * w[:, None]
        finite = np.isfinite(terms).all(axis=0)
        terms[:, ~finite] = 0.0
        ints = _exact_sums(terms, mult[live])
        self.base = [None] * len(CASE_ORDER)
        for k, value, ok in zip(countable, ints, finite.tolist()):
            self.base[k] = value if ok else None

    def sums(
        self, rules: tuple[tuple[int, float, float], ...],
    ) -> list[tuple[int, int]]:
        """Exact (comparable, credit) sums in units of each (case, weight,
        credit) rule.

        A rule with weight 1 and credit 0, 1/2 or 1 reads its case's base
        sum, halved for a credit of 1/2 (exact: every float is an even number
        of units).  Any other rule, or one whose case has no base sum, sums
        its own terms count * (w * weight) and count * ((w * weight) *
        credit), the float products the policy defines; all such rules of one
        call take one :func:`_exact_sums` call.
        """
        read = [self._read(*rule) for rule in rules]
        own = iter(self._own_sums([r for r, s in zip(rules, read) if s is None]))
        return [s or next(own) for s in read]

    def _read(
        self, case: int, weight: float, credit: float,
    ) -> tuple[int, int] | None:
        base = self.base[case]
        if (weight != 1.0 or credit not in (0.0, 0.5, 1.0) or base is None
                or not self.exact_halves):
            return None
        return base, base >> 1 if credit == 0.5 else base if credit else 0

    def _own_sums(
        self, rules: list[tuple[int, float, float]],
    ) -> list[tuple[int, int]]:
        if not rules:
            return []
        cases, weight, credit = (np.array(v) for v in zip(*rules))
        live = self.live
        with np.errstate(over="ignore", invalid="ignore"):  # _exact_sums rejects inf/NaN
            pair = self.weights[live, None] * weight
            counts = self.counts[live][:, cases]
            terms = np.hstack((counts * pair, counts * (pair * credit)))
        ints = _exact_sums(terms, self.mult[live])
        k = len(rules)
        return list(zip(ints[:k], ints[k:]))


def _reduce(cols: _ColumnSet, policy: ConcordancePolicy) -> PairTally:
    """Apply a policy to a column set: the one reducer.

    Each comparable case reads its exact (comparable, credit) sums in units
    from the set (:meth:`_ColumnSet.sums`), and the rest is Python-integer
    arithmetic: each per-case sum is rounded once, and the numerator and
    denominator are the exact totals of the case sums, rounded once
    (:func:`_rounded`).  So each weighted sum is the correctly rounded sum
    of its float terms (count times anchor weight times case weight, and
    times credit), however and in whatever order the counts were produced.  Pairs of undefined anchors in comparable
    cases are counted in ``dropped_pairs`` instead of ``case_counts``.  A
    term or a sum that is not finite raises :class:`ComputationError`.
    """
    rules = policy._rules
    sums = cols.sums(rules)
    n_cases = len(CASE_ORDER)
    comparable, credit, dropped = [0.0] * n_cases, [0.0] * n_cases, [0] * n_cases
    for (case, _, _), (comp, cred) in zip(rules, sums):
        comparable[case], credit[case] = _rounded(comp), _rounded(cred)
        dropped[case] = cols.undefined[case]

    def by_label(values: list) -> Mapping:
        return MappingProxyType(dict(zip(_CASE_LABELS, values)))

    return PairTally(
        case_counts=by_label([d - u for d, u in zip(cols.drawn, dropped)]),
        case_comparable=by_label(comparable),
        case_credit=by_label(credit),
        numerator=_rounded(sum(cred for _, cred in sums)),
        denominator=_rounded(sum(comp for comp, _ in sums)),
        dropped_pairs=sum(dropped),
        anchors_beyond_grid=cols.anchors_beyond_grid,
        policy=policy,
        tau=cols.tau,
    )


def _finalize(numerator: float, denominator: float, final_fold: str) -> float:
    if denominator == 0:
        raise ComputationError("no comparable pairs")
    estimate = numerator / denominator
    if final_fold == FOLD_MAX_COMPLEMENT:
        return max(estimate, 1.0 - estimate)
    return estimate


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
    exactly as a ratio of two integers, which true division rounds once.
    """
    scale = 1 << _PRODUCT_BITS
    low = high = scale
    values: list[float] = []
    for k, (num, den) in enumerate(zip(numerators, denominators)):
        low, high = low * num // den, -(-high * num // den)
        value = low / scale
        if value != high / scale:
            top, bottom = math.prod(numerators[:k]), math.prod(denominators[:k])
            for num, den in zip(numerators[k:], denominators[k:]):
                top, bottom = top * num, bottom * den
                values.append(top / bottom)
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


class _Scorer:
    """One dataset and its rank inputs, scored on draws of its subjects.

    A draw takes subject i ``mult[i]`` times: once each for the data itself,
    a bootstrap resample's multiplicities otherwise.  What counting needs
    from the data alone is built once, on first use, and shared by every
    draw: the sorted structure per scalar tie tolerance
    (:func:`_scalar_build`) and the grouping of tied times for censoring
    fits.  ``risks`` (a validated array) feeds scalar ranking, ``curves``
    (grid points, probs) ranking by survival curves.  Unless ``resampled``
    says more than one draw will be read, a sorted structure is dropped once
    read, so that each is held only while it is needed.
    """

    def __init__(
        self,
        ds: SurvivalDataset,
        risks: np.ndarray | None = None,
        curves: tuple[np.ndarray, np.ndarray] | None = None,
        g: StepFunction | None = None,
        resampled: bool = False,
    ) -> None:
        if curves is not None and curves[1].shape[0] != ds.n:
            raise InputError("survival matrix is not aligned with the dataset")
        self.ds = ds
        self.risks = risks
        self.curves = curves
        self.g = g
        self.resampled = resampled
        self._indexes: dict[float, _ScalarIndex] = {}

    def draw(self, mult: np.ndarray | None = None) -> "_Draw":
        """The draw taking subject i ``mult[i]`` times; by default the data itself."""
        return _Draw(self, np.ones(self.ds.n, dtype=np.int64) if mult is None else mult)

    def scalar_index(self, tol: float) -> _ScalarIndex:
        if tol in self._indexes:
            return self._indexes[tol]
        index = _scalar_build(self.ds.times, self.ds.events, self.risks, tol)
        if self.resampled:
            self._indexes[tol] = index
        return index

    @cached_property
    def time_groups(self) -> tuple[np.ndarray, np.ndarray]:
        return _time_groups(self.ds.times)


class _Draw:
    """One draw of a scorer's subjects, scored under any number of policies.

    A draw is its multiplicities alone: every per-subject array stays in
    subject order, and a subject drawn no times adds nothing.  Each policy
    is scored as written, but for the truncation a caller puts in its place
    and a censoring distribution fitted on the draw whenever the scorer was
    given none.  Counts are kept per (rank source, tie tolerance), the
    censoring fit is made at most once and IPCW weights once per weight
    scheme, and each (rank source, tie tolerance, weight scheme, resolved
    tau) is masked and summed once into a :class:`_ColumnSet`, all on first
    use, so the policies that share a set differ only in the integer
    arithmetic :func:`_reduce` does on its sums.
    """

    def __init__(self, scorer: _Scorer, mult: np.ndarray) -> None:
        self.scorer = scorer
        self.mult = mult
        self._counts: dict[tuple[bool, float], tuple[np.ndarray, int]] = {}
        self._weights: dict[str, np.ndarray] = {}
        self._sets: dict[tuple[bool, float, str, float | None], _ColumnSet] = {}

    def score(
        self, policy: ConcordancePolicy, by_curves: bool, truncation: Truncation
    ) -> tuple[float, PairTally]:
        """Estimate and tally under ``policy``, ranking by curves if ``by_curves``
        and truncating by ``truncation``."""
        scheme, tol = policy.weight_scheme, policy.tie_tolerance
        weights = self.weights(scheme)
        tau = truncation.resolve(self.uncensored)
        key = (by_curves, tol, scheme, tau)
        if key not in self._sets:
            counts, beyond = self._counts_for(by_curves, tol)
            self._sets[key] = _ColumnSet(counts, self.scorer.ds.times, weights, tau,
                                         self.mult, beyond)
        tally = _reduce(self._sets[key], policy)
        return _finalize(tally.numerator, tally.denominator, policy.final_fold), tally

    @cached_property
    def uncensored(self) -> np.ndarray:
        ds = self.scorer.ds
        return ds.times[(ds.events == 1) & (self.mult > 0)]

    @cached_property
    def censoring(self) -> StepFunction:
        scorer = self.scorer
        return _km_from_groups(scorer.time_groups, scorer.ds.events == 0, self.mult)

    def weights(self, scheme: str) -> np.ndarray:
        """Each subject's IPCW weight: the scorer's G, or else G fitted on the
        draw, read at the subject's time."""
        if scheme not in self._weights:
            g = self.scorer.g
            if g is None and scheme != WEIGHT_UNIFORM:
                g = self.censoring
            self._weights[scheme] = ipcw_weights(g, self.scorer.ds, scheme)
        return self._weights[scheme]

    def _counts_for(self, by_curves: bool, tol: float) -> tuple[np.ndarray, int]:
        """Case counts per subject and the number of anchors beyond the curves' grid."""
        key = (by_curves, tol)
        if key not in self._counts:
            scorer = self.scorer
            times, events = scorer.ds.times, scorer.ds.events
            if by_curves:
                points, probs = scorer.curves
                cells = _curve_cells(times, events, points, probs, tol, self.mult)
                beyond = int(self.mult[times > points[-1]].sum())
            else:
                cells, beyond = _scalar_read(scorer.scalar_index(tol), self.mult), 0
            self._counts[key] = (_cases(cells, events), beyond)
        return self._counts[key]


def _score_once(
    scorer: _Scorer, policy: ConcordancePolicy, by_curves: bool = False
) -> tuple[float, PairTally]:
    """Score the data itself, refusing, before any counting, a weighting
    policy whose censoring distribution must be fitted elsewhere when the
    scorer was given none."""
    if (scorer.g is None and policy.weight_scheme != WEIGHT_UNIFORM
            and policy.g_source == G_SOURCE_PROVIDED):
        raise InputError("policy requires an externally fitted censoring distribution")
    return scorer.draw().score(policy, by_curves, policy.truncation)


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
    _check_kind(ds, SurvivalDataset, "ds")
    _check_kind(policy, ConcordancePolicy, "policy")
    return _score_once(_Scorer(ds, risks=as_risk_array(risks, ds.n), g=g), policy)


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
    _check_kind(ds, SurvivalDataset, "ds")
    _check_kind(sm, SurvivalMatrix, "sm")
    _check_kind(policy, ConcordancePolicy, "policy")
    return _score_once(_Scorer(ds, curves=(sm.grid.points, sm.probs), g=g), policy, True)


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

    Requires a tally produced with uniform weights and no final fold by a
    policy of the :func:`tie_weighted_policy` family, whose ``omega_o`` (the
    weight of case 6A) and ``omega_p`` (the credit of case 1C) it reads;
    recombining the blocks reproduces the original estimate.
    """
    _check_kind(tally, PairTally, "tally")
    policy = tally.policy
    if policy.weight_scheme != WEIGHT_UNIFORM:
        raise InputError("decomposition is defined for uniform weights only")
    if policy.final_fold != FOLD_IDENTITY:
        raise InputError("decomposition is defined for unfolded estimates only")
    omega_o = policy.case_table[PairCase.C6A].comparable_weight
    omega_p = policy.case_table[PairCase.C1C].credit
    foreign = InputError("tally was not produced by a tie-weighted policy")
    if not 0.0 <= omega_p <= 1.0:  # only an excluded case 1C can carry it
        raise foreign

    def comparable(p: ConcordancePolicy) -> dict[PairCase, CaseRule]:
        return {c: r for c, r in p.case_table.items() if r.comparable_weight > 0}

    if comparable(policy) != comparable(tie_weighted_policy(omega_o, omega_p)):
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

