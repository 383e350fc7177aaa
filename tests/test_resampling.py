import numpy as np
import pytest

from survconcord import (
    BootstrapSpec,
    ComputationError,
    InputError,
    SurvivalDataset,
    bootstrap_ci,
    run_multiverse,
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

    result = bootstrap_ci(ds, sometimes, n_resamples=40, seed=7)
    assert 0 < result.n_failed < 40
    assert result.samples.size == 40 - result.n_failed
    assert result.lower == result.upper == 0.5

    def always_fails(idx):
        raise ComputationError("no comparable pairs")

    with pytest.raises(ComputationError, match="all bootstrap"):
        bootstrap_ci(ds, always_fails, n_resamples=5, sample_size=3, seed=7)


@pytest.mark.parametrize("n, sample_size", [(7, None), (7, 3), (4, 9)])
def test_resamples_are_successive_draws_of_one_seeded_stream(n, sample_size):
    # Reports are reproducible only while a seed fixes this exact stream.
    spec = BootstrapSpec(5, sample_size=sample_size)
    rng = np.random.Generator(np.random.PCG64(13))
    size = n if sample_size is None else sample_size
    want = [rng.integers(0, n, size=size) for _ in range(5)]
    got = list(spec.resamples(n, 13))
    assert len(got) == 5
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


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


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_bad_seed_is_an_input_error(seed):
    ds = _dataset(4, 0)
    risks = [0.4, 0.3, 0.2, 0.1]
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        bootstrap_ci(ds, lambda i: 1.0, n_resamples=3, seed=seed)
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        run_multiverse(ds, risks=risks, bootstrap=BootstrapSpec(3), seed=seed)


def test_numpy_integer_seed_draws_like_the_int():
    spec = BootstrapSpec(3)
    for got, want in zip(spec.resamples(6, np.int64(9)), spec.resamples(6, 9)):
        assert np.array_equal(got, want)
