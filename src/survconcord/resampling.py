"""Stratified cross-validation splits and bootstrap confidence intervals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import ComputationError, InputError, SurvivalDataset


def stratified_kfold(
    ds: SurvivalDataset, k: int, seed: int = 0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """k train/test index splits with events and censored subjects balanced.

    The event and censored strata are shuffled and partitioned independently
    into k near-equal folds, so every fold sees close to the global event
    rate.  Each subject appears in exactly one test fold.
    """
    if k < 2:
        raise InputError("k must be at least 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    strata = [np.flatnonzero(ds.events == 1), np.flatnonzero(ds.events == 0)]
    chunks = []
    for stratum in strata:
        if stratum.size < k:
            raise InputError(
                f"stratum of size {stratum.size} cannot be split into {k} folds"
            )
        chunks.append(np.array_split(rng.permutation(stratum), k))
    n = ds.n
    folds = []
    for f in range(k):
        test = np.sort(np.concatenate([chunks[0][f], chunks[1][f]]))
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((np.flatnonzero(mask), test))
    return folds


@dataclass(frozen=True)
class BootstrapResult:
    lower: float
    upper: float
    samples: np.ndarray
    n_failed: int


def bootstrap_ci(
    ds: SurvivalDataset,
    estimator: Callable[[np.ndarray], float],
    n_resamples: int,
    sample_size: int | None = None,
    level: float = 0.95,
    seed: int = 0,
    indices: np.ndarray | None = None,
) -> BootstrapResult:
    """Percentile bootstrap interval around an estimator of subject indices.

    ``estimator`` receives an index array into ``ds`` and returns a scalar.
    Resamples are drawn with replacement from ``indices`` (all subjects by
    default); the point estimate on the unresampled data is the caller's.
    Resamples on which the estimator raises :class:`ComputationError` (e.g.
    no comparable pairs under heavy censoring) are counted and excluded from
    the percentile computation rather than aborting the run.
    """
    if n_resamples < 1:
        raise InputError("need at least one bootstrap resample")
    if not 0.0 < level < 1.0:
        raise InputError("confidence level must lie in (0, 1)")
    if indices is None:
        indices = np.arange(ds.n)
    else:
        indices = np.asarray(indices, dtype=int)
    if sample_size is None:
        sample_size = indices.size
    if sample_size < 1:
        raise InputError("sample size must be positive")

    rng = np.random.Generator(np.random.PCG64(seed))
    values = []
    n_failed = 0
    for _ in range(n_resamples):
        draw = indices[rng.integers(0, indices.size, size=sample_size)]
        try:
            values.append(estimator(draw))
        except ComputationError:
            n_failed += 1
    if not values:
        raise ComputationError("all bootstrap resamples failed")
    samples = np.array(values)
    tail = (1.0 - level) / 2.0
    lower, upper = np.quantile(samples, [tail, 1.0 - tail])
    return BootstrapResult(
        lower=float(lower),
        upper=float(upper),
        samples=samples,
        n_failed=n_failed,
    )
