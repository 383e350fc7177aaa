"""Core domain types for right-censored survival data and the ordered-pair taxonomy.

Every concordance estimator in this package is driven by the same
classification of ordered subject pairs (i, j): the sign of T_i - T_j, the
two event indicators, and the rank relation of the model predictions jointly
determine a case label. Policies then attach a comparability weight and a
concordance credit to each label.

Subject order is the canonical alignment key: datasets, risk vectors and
survival matrices are matched positionally, never by id.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from typing import Iterable, Mapping

import numpy as np


class InputError(ValueError):
    """Raised for malformed or inconsistent user input."""


class ComputationError(RuntimeError):
    """Raised when an estimator cannot produce a value (e.g. no comparable pairs)."""


class RankRelation(enum.Enum):
    """Risk ordering of a pair: is the anchor subject predicted riskier?

    For scalar risks this is the ordering of M(x_i) vs M(x_j).  For
    distribution-based ranking it is derived from survival probabilities
    evaluated at the anchor's time, where *smaller survival means greater
    risk*.
    """

    GREATER = "greater"
    LESS = "less"
    TIED = "tied"


class PairCase(enum.Enum):
    """Ordered-pair case labels.

    Cases 1x/2x: anchor fails strictly first and is uncensored, split by the
    other subject's status and the prediction rank (A: anchor riskier,
    B: anchor less risky, C: tied predictions).  Cases 3/4: the pair carries
    no usable ordering anchored at i; pairs whose anchor has the *later*
    time also land here so that each unordered pair is counted at most once,
    via its earlier subject.  Cases 5x/6x/7x/8: tied observed times, split by
    the status pattern (1,1) / (1,0) / (0,1) / (0,0) and the rank.
    """

    C1A = "1A"
    C1B = "1B"
    C1C = "1C"
    C2A = "2A"
    C2B = "2B"
    C2C = "2C"
    C3 = "3"
    C4 = "4"
    C5A = "5A"
    C5B = "5B"
    C5C = "5C"
    C6A = "6A"
    C6B = "6B"
    C6C = "6C"
    C7A = "7A"
    C7B = "7B"
    C7C = "7C"
    C8 = "8"


#: Fixed case order used for array-backed policy lookups and tallies.
CASE_ORDER: tuple[PairCase, ...] = tuple(PairCase)
CASE_INDEX: dict[PairCase, int] = {case: k for k, case in enumerate(CASE_ORDER)}

_SUFFIX = {RankRelation.GREATER: "A", RankRelation.LESS: "B", RankRelation.TIED: "C"}


def classify_pair(
    ti: float, di: int, tj: float, dj: int, rel: RankRelation
) -> PairCase:
    """Classify the ordered pair (i, j) anchored at subject i.

    ``rel`` is the prediction rank of i relative to j (greater = riskier).
    Pairs with ``ti > tj`` map to case 3 when the earlier subject's event was
    observed (the pair is counted through the opposite ordering) and to
    case 4 otherwise; both are excluded by every shipped policy.
    """
    if ti < tj:
        if di == 1:
            family = "1" if dj == 1 else "2"
            return PairCase(family + _SUFFIX[rel])
        return PairCase.C3 if dj == 1 else PairCase.C4
    if ti > tj:
        return PairCase.C3 if dj == 1 else PairCase.C4
    # Tied observed times.
    if di == 1 and dj == 1:
        return PairCase("5" + _SUFFIX[rel])
    if di == 1 and dj == 0:
        return PairCase("6" + _SUFFIX[rel])
    if di == 0 and dj == 1:
        return PairCase("7" + _SUFFIX[rel])
    return PairCase.C8


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a read-only C-ordered float64 copy; anything but a rectangular
    array of numbers or booleans raises :class:`InputError` naming ``what``."""
    try:
        array = np.asarray(values)
    except ValueError:  # a ragged nesting
        array = None
    if array is None or array.dtype.kind not in ("b", "i", "u", "f"):
        raise InputError(f"{what} must be a rectangular numeric array")
    return _readonly(array.astype(float, order="C"))


def _reject_first(values: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Raise InputError naming the first position where ``ok`` is False."""
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise InputError(f"{what} {float(values[k])!r} at position {k}")


@dataclass(frozen=True)
class SurvivalDataset:
    """Aligned arrays of observed times, event indicators and optional covariates.

    Times must be finite and nonnegative, events exactly 0 or 1 and
    covariates finite; anything else raises :class:`InputError`.  Immutable
    after construction; all downstream code relies on positional alignment
    with risk vectors and survival matrices.
    """

    times: np.ndarray
    events: np.ndarray
    subject_ids: tuple[str, ...] = ()
    covariates: np.ndarray | None = None

    def __post_init__(self) -> None:
        times = _float_array(self.times, "times")
        events = _float_array(self.events, "events")
        if times.ndim != 1 or events.shape != times.shape:
            raise InputError("times and events must be 1-d arrays of equal length")
        _reject_first(times, np.isfinite(times), "non-finite time")
        _reject_first(times, times >= 0, "negative time")
        _reject_first(events, (events == 0) | (events == 1), "non-binary event")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", _readonly(events.astype(np.int8)))
        ids = self.subject_ids
        try:
            flat = not isinstance(ids, (str, bytes)) and np.ndim(ids) == 1
        except ValueError:  # a ragged nesting
            flat = False
        if not flat:
            raise InputError(
                f"subject_ids must be a 1-d sequence of ids, got {type(ids).__name__}"
            )
        ids = tuple(map(str, ids)) or tuple(map(str, range(times.size)))
        if len(ids) != times.size:
            raise InputError("subject_ids length does not match times")
        object.__setattr__(self, "subject_ids", ids)
        if self.covariates is not None:
            cov = _float_array(self.covariates, "covariates")
            if cov.ndim != 2 or cov.shape[0] != times.size:
                raise InputError("covariates must be an (n, p) array aligned with times")
            if not np.all(np.isfinite(cov)):
                raise InputError("covariates contain non-finite values")
            object.__setattr__(self, "covariates", cov)

    @property
    def n(self) -> int:
        return int(self.times.size)

    @property
    def n_events(self) -> int:
        return int(np.sum(self.events == 1))

    def subset(self, indices: np.ndarray) -> "SurvivalDataset":
        """Positional subset; preserves covariates.  A boolean mask, float
        positions or a position out of range raise :class:`InputError`."""
        indices = np.asarray(indices)
        if indices.size and indices.dtype.kind not in ("i", "u"):
            raise InputError(f"subset indices must be integers, got {indices.dtype}")
        indices = indices.astype(int, copy=False)
        if indices.size and not -self.n <= indices.min() <= indices.max() < self.n:
            raise InputError(f"subset indices must lie in [-{self.n}, {self.n})")
        return SurvivalDataset(
            times=self.times[indices],
            events=self.events[indices],
            subject_ids=tuple(map(self.subject_ids.__getitem__, indices.tolist())),
            covariates=None if self.covariates is None else self.covariates[indices],
        )


def as_float(value, what: str) -> float:
    """A real number as a plain float, so that it is written as a JSON number.

    Booleans (``True`` is not the number 1) and anything that is not a real
    number raise :class:`InputError` naming ``what``.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{what} is beyond the float range") from None


def _field_dict(obj) -> dict:
    """A dataclass's fields by name; unlike dataclasses.asdict, no deep copy."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _reject_unknown_keys(d, known: type | Iterable[str], what: str) -> None:
    """Refuse a block that is not an object, and keys that are not a name in
    ``known`` (a dataclass's field names, or the names given), e.g. typos."""
    if not isinstance(d, Mapping):
        raise InputError(f"{what} must be an object, got {type(d).__name__}")
    if is_dataclass(known):
        known = [f.name for f in fields(known)]
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InputError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _check_kind(value, kind: type, what: str) -> None:
    """Raise :class:`InputError` naming ``what`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise InputError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")


def as_seed(seed) -> int:
    """A nonnegative integer seed, numpy integers included, as a plain int.

    Booleans and anything else raise :class:`InputError`.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


def as_risk_array(risks, n: int) -> np.ndarray:
    """Coerce an array-like to a validated read-only float array of length n."""
    values = _float_array(risks, "risk vector")
    if values.ndim != 1 or values.size != n:
        raise InputError(f"risk vector must have length {n}, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("risk vector contains non-finite values")
    return values


#: More float64 values than numpy will allocate in one array.
_MAX_GRID_POINTS = np.iinfo(np.intp).max // np.dtype(float).itemsize


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, finite, nonnegative evaluation times."""

    points: np.ndarray

    def __post_init__(self) -> None:
        points = _float_array(self.points, "grid")
        if points.ndim != 1 or points.size == 0:
            raise InputError("grid must be a non-empty 1-d array")
        if not np.all(np.isfinite(points)):
            raise InputError("grid contains non-finite values")
        if points[0] < 0:
            raise InputError("grid must start at a nonnegative time")
        if not np.all(np.diff(points) > 0):
            raise InputError("grid must be strictly increasing")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return int(self.points.size)

    @classmethod
    def regular(cls, stop: float, step: float = 1.0, start: float = 0.0) -> "TimeGrid":
        """Grid {start, start+step, ...} up to and including stop (when hit exactly)."""
        stop, step, start = (as_float(value, f"grid {name}") for name, value in
                             (("stop", stop), ("step", step), ("start", start)))
        if not all(map(math.isfinite, (stop, step, start))):
            raise InputError("grid start, stop and step must be finite")
        if step <= 0:
            raise InputError("grid step must be positive")
        span = (stop - start) / step
        if not span < _MAX_GRID_POINTS:
            raise InputError(
                f"grid from {start!r} to {stop!r} by {step!r} has more points "
                f"than an array can hold"
            )
        count = int(math.floor(span + 1e-12)) + 1
        if count < 1:
            raise InputError("grid stop precedes start")
        return cls(start + step * np.arange(count))


# Rows of a survival matrix must be nonincreasing; wiggle up to this tolerance
# (e.g. from upstream interpolation) is clamped, anything larger is rejected
# because distribution-based ranking assumes monotone curves.
MONOTONICITY_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SurvivalMatrix:
    """Per-subject survival probabilities over a shared time grid.

    ``probs[i, k]`` is the predicted probability that subject i survives past
    ``grid.points[k]``.  Rows are validated to be within [0, 1] and
    nonincreasing up to ``MONOTONICITY_TOLERANCE``.
    """

    grid: TimeGrid
    probs: np.ndarray

    def __post_init__(self) -> None:
        _check_kind(self.grid, TimeGrid, "grid")
        probs = _float_array(self.probs, "survival probabilities")
        if probs.ndim != 2 or probs.shape[1] != len(self.grid):
            raise InputError(
                f"probs must be (n, {len(self.grid)}) to match the grid, "
                f"got shape {probs.shape}"
            )
        if not np.all(np.isfinite(probs)):
            raise InputError("survival probabilities contain non-finite values")
        tol = MONOTONICITY_TOLERANCE
        # Clamping and the running minimum run only where they change a value:
        # np.clip keeps values in [0, 1] bit for bit, and np.minimum returns
        # its second argument on ties, so a nonincreasing row is kept as is.
        low, high = (probs.min(), probs.max()) if probs.size else (0.0, 1.0)
        if low < -tol or high > 1.0 + tol:
            raise InputError("survival probabilities outside [0, 1]")
        if low < 0.0 or high > 1.0:
            probs = np.clip(probs, 0.0, 1.0)
        if np.any(probs[:, 1:] > probs[:, :-1]):  # some row rises
            rises = np.diff(probs, axis=1)
            worst = rises.max()
            if worst > tol:
                rows = np.unique(np.nonzero(rises > tol)[0])
                raise InputError(
                    f"survival rows increase over time beyond tolerance "
                    f"(worst rise {worst:.3e}, rows {rows[:5].tolist()})"
                )
            probs = np.minimum.accumulate(probs, axis=1)
        object.__setattr__(self, "probs", _readonly(probs))

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])
