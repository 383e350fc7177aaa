import numpy as np
import pytest

from survconcord import (
    ComputationError,
    InputError,
    SurvivalDataset,
    bootstrap_ci,
)


def _dataset(n_events, n_censored):
    n = n_events + n_censored
    return SurvivalDataset(
        times=np.arange(1.0, n + 1),
        events=np.array([1] * n_events + [0] * n_censored),
    )


def test_bootstrap_constant_estimator_degenerate_interval():
    ds = _dataset(6, 0)
    result = bootstrap_ci(ds, lambda idx: 1.0, n_resamples=50, seed=2)
    assert (result.lower, result.upper) == (1.0, 1.0)
    assert np.all(result.samples == 1.0)


def test_bootstrap_single_resample():
    ds = _dataset(6, 0)
    result = bootstrap_ci(ds, lambda idx: float(idx.sum()), n_resamples=1, seed=4)
    assert result.lower == result.upper == result.samples[0]


def test_bootstrap_failures_recorded_and_excluded():
    ds = _dataset(6, 0)

    def sometimes(idx):
        if idx[0] % 2 == 0:
            raise ComputationError("no comparable pairs")
        return 0.5

    result = bootstrap_ci(ds, sometimes, n_resamples=40, seed=7, indices=np.arange(1, 6))
    assert result.n_failed > 0
    assert result.samples.size == 40 - result.n_failed
    assert result.lower == result.upper == 0.5

    def fails_on_resamples(idx):
        if idx.size == 3:  # every resample draws sample_size = 3
            raise ComputationError("no comparable pairs")
        return 0.5

    with pytest.raises(ComputationError, match="all bootstrap"):
        bootstrap_ci(
            ds, fails_on_resamples, n_resamples=5, sample_size=3, seed=7,
            indices=np.arange(1, 6),
        )


def test_bootstrap_deterministic_and_bounded():
    rng = np.random.default_rng(12)
    ds = SurvivalDataset(times=rng.exponential(5, 40), events=rng.integers(0, 2, 40))
    risks = rng.normal(size=40)
    from survconcord import concordance, tie_weighted_policy

    pol = tie_weighted_policy(0.0, 0.5)

    def estimator(idx):
        return concordance(ds.subset(idx), risks[idx], pol)[0]

    a = bootstrap_ci(ds, estimator, n_resamples=30, level=0.9, seed=11)
    b = bootstrap_ci(ds, estimator, n_resamples=30, level=0.9, seed=11)
    assert np.array_equal(a.samples, b.samples)
    assert 0.0 <= a.lower <= a.upper <= 1.0


def test_bootstrap_validates_arguments():
    ds = _dataset(4, 0)
    with pytest.raises(InputError):
        bootstrap_ci(ds, lambda i: 1.0, n_resamples=0)
    with pytest.raises(InputError):
        bootstrap_ci(ds, lambda i: 1.0, n_resamples=5, level=1.5)
