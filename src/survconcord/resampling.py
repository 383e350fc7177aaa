"""Bootstrap resamples and percentile confidence intervals."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .data import ComputationError, InputError, SurvivalDataset, as_float


@dataclass(frozen=True)
class BootstrapResult:
    lower: float
    upper: float
    samples: np.ndarray
    n_failed: int


@dataclass(frozen=True)
class BootstrapSpec:
    """Percentile bootstrap settings, checked where they are built."""

    n_resamples: int = 100
    sample_size: int | None = None
    level: float = 0.95

    def __post_init__(self) -> None:
        size = 1 if self.sample_size is None else self.sample_size
        for value in (self.n_resamples, size):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InputError(f"bootstrap counts must be integers, got {value!r}")
        # Plain Python numbers, so that to_dict() is written as JSON numbers.
        object.__setattr__(self, "n_resamples", int(self.n_resamples))
        if self.sample_size is not None:
            object.__setattr__(self, "sample_size", int(self.sample_size))
        object.__setattr__(self, "level", as_float(self.level, "confidence level"))
        if self.n_resamples < 1:
            raise InputError("need at least one bootstrap resample")
        if not 0.0 < self.level < 1.0:
            raise InputError("confidence level must lie in (0, 1)")
        if size < 1:
            raise InputError("sample size must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    def resamples(self, n: int, seed: int) -> Iterator[np.ndarray]:
        """Index arrays into ``n`` subjects, one per resample, from one PCG64(seed)."""
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InputError(
                f"bootstrap seed must be a nonnegative integer, got {seed!r}"
            )
        size = n if self.sample_size is None else self.sample_size
        rng = np.random.Generator(np.random.PCG64(seed))
        return (rng.integers(0, n, size=size) for _ in range(self.n_resamples))

    def interval(self, values: Sequence[float], n_failed: int) -> BootstrapResult:
        """Percentile interval of the resample values that did not fail."""
        if not values:
            raise ComputationError("all bootstrap resamples failed")
        samples = np.array(values)
        tail = (1.0 - self.level) / 2.0
        lower, upper = np.quantile(samples, [tail, 1.0 - tail])
        return BootstrapResult(
            lower=float(lower),
            upper=float(upper),
            samples=samples,
            n_failed=n_failed,
        )


def bootstrap_ci(
    ds: SurvivalDataset,
    estimator: Callable[[np.ndarray], float],
    n_resamples: int,
    sample_size: int | None = None,
    level: float = 0.95,
    seed: int = 0,
) -> BootstrapResult:
    """Percentile bootstrap interval around an estimator of subject indices.

    ``estimator`` receives an index array into ``ds`` and returns a scalar.
    Resamples of ``sample_size`` subjects (default ``ds.n``) are drawn as
    :meth:`BootstrapSpec.resamples` draws them; the point estimate on the
    unresampled data is the caller's.  Resamples on which the estimator
    raises :class:`ComputationError` (e.g. no comparable pairs under heavy
    censoring) are counted and excluded from the percentile computation
    rather than aborting the run.
    """
    spec = BootstrapSpec(n_resamples, sample_size, level)
    values = []
    n_failed = 0
    for draw in spec.resamples(ds.n, seed):
        try:
            values.append(estimator(draw))
        except ComputationError:
            n_failed += 1
    return spec.interval(values, n_failed)
