import numpy as np
import pytest

from survconcord import (
    ComputationError,
    InputError,
    UniformQuantileCensoring,
    WeibullCensoring,
    WeibullPHParams,
    assemble,
    generate_censoring,
    generate_event_times,
    oracle_cindex,
    subseed,
)

EXP = WeibullPHParams(shape=1.0, scale=1.0, coefficients=[0.0])


def test_event_times_standard_exponential_moments():
    x = np.zeros((100_000, 1))
    t = generate_event_times(EXP, x, rng_seed=123)
    # Mean of 1e5 unit exponentials: within 3 standard errors of 1.
    assert abs(t.mean() - 1.0) < 3.0 / np.sqrt(t.size)
    assert t.min() >= 0.0


def test_event_times_scale_with_linear_predictor():
    params = WeibullPHParams(shape=2.0, scale=1.0, coefficients=[1.0])
    base = generate_event_times(params, np.zeros((500, 1)), rng_seed=9)
    shifted = generate_event_times(params, np.ones((500, 1)), rng_seed=9)
    # Same seed shares the underlying uniforms: scaling e^(x.b) by e shrinks
    # every draw by e^(-1/shape).
    assert shifted == pytest.approx(base * np.exp(-0.5))


def test_same_seed_bitwise_reproducible():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 1))
    a = generate_event_times(EXP, x, rng_seed=7)
    b = generate_event_times(EXP, x, rng_seed=7)
    assert np.array_equal(a, b)
    ca = generate_censoring(WeibullCensoring(1.0, 1.0, 0.5), a, x, rng_seed=8)
    cb = generate_censoring(WeibullCensoring(1.0, 1.0, 0.5), a, x, rng_seed=8)
    assert np.array_equal(ca, cb)


def test_zero_epsilon_means_no_censoring():
    t = generate_event_times(EXP, np.zeros((200, 1)), rng_seed=1)
    c = generate_censoring(WeibullCensoring(1.0, 1.0, 0.0), t, None, rng_seed=2)
    assert np.all(np.isinf(c))
    ds = assemble(t, c)
    assert ds.n_events == ds.n


def test_censoring_rate_monotone_in_epsilon():
    rng = np.random.default_rng(14)
    covariates = [rng.standard_normal((100, 1)) for _ in range(100)]
    rates = []
    for eps in (0.0, 0.5, 1.0, 3.0, 7.0, 13.0):
        vals = []
        for k, x in enumerate(covariates):
            t = generate_event_times(EXP, x, rng_seed=subseed(3, 0, k))
            c = generate_censoring(
                WeibullCensoring(1.0, 1.0, eps), t, x, rng_seed=subseed(3, 1, k)
            )
            ds = assemble(t, c)
            vals.append(1.0 - ds.n_events / ds.n)
        rates.append(np.mean(vals))
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 0.0 and rates[-1] > 0.8


def test_age_informed_censoring_targets_older_subjects():
    rng = np.random.default_rng(44)
    age = rng.standard_normal((4000, 1))
    t = generate_event_times(EXP, age, rng_seed=11)
    mech = WeibullCensoring(shape=1.0, scale=1.0, epsilon=1.0, beta_age=2.0, age_column=0)
    c = generate_censoring(mech, t, age, rng_seed=12)
    ds = assemble(t, c)
    censored = ds.events == 0
    assert age[censored, 0].mean() > age[~censored, 0].mean()
    with pytest.raises(InputError, match="requires covariates"):
        generate_censoring(mech, t, None, rng_seed=12)
    with pytest.raises(InputError, match="age column out of range"):
        generate_censoring(
            WeibullCensoring(1.0, 1.0, 1.0, beta_age=2.0, age_column=1), t, age, rng_seed=12
        )


_CENSORING_MESSAGES = {
    "shape": "censoring shape and scale must be positive and finite",
    "scale": "censoring shape and scale must be positive and finite",
    "epsilon": "epsilon must be nonnegative and finite",
    "beta_age": "beta_age must be finite",
    "age_column": "age_column must be an integer or None",
}


@pytest.mark.parametrize("field, value", [
    ("shape", np.nan), ("shape", np.inf), ("scale", np.nan), ("scale", 0.0),
    ("epsilon", np.nan), ("epsilon", np.inf), ("epsilon", -1.0),
    ("beta_age", np.nan), ("beta_age", -np.inf),
    ("age_column", True), ("age_column", 1.5),
])
def test_weibull_censoring_rejects_non_finite_parameters(field, value):
    params = {"shape": 1.0, "scale": 0.02, "epsilon": 1.0, "beta_age": 0.5,
              "age_column": 0, field: value}
    with pytest.raises(InputError, match=_CENSORING_MESSAGES[field]):
        WeibullCensoring(**params)


def test_zero_age_effect_draws_the_plain_weibull_times():
    rng = np.random.default_rng(45)
    x = rng.standard_normal((300, 2))
    t = generate_event_times(EXP, x[:, :1], rng_seed=13)
    for eps in (0.0, 0.7):
        plain = generate_censoring(WeibullCensoring(1.3, 0.5, eps), t, None, rng_seed=14)
        aged = generate_censoring(
            WeibullCensoring(1.3, 0.5, eps, beta_age=0.0, age_column=0), t, x, rng_seed=14
        )
        assert np.array_equal(aged, plain)


def test_uniform_quantile_censoring_bounds():
    t = generate_event_times(EXP, np.zeros((2000, 1)), rng_seed=5)
    c0 = generate_censoring(UniformQuantileCensoring(0.0), t, None, rng_seed=6)
    assert c0.max() <= t.max() and c0.min() >= t.min()
    c5 = generate_censoring(UniformQuantileCensoring(0.5), t, None, rng_seed=6)
    assert c5.max() <= np.quantile(t, 0.5)
    with pytest.raises(InputError, match="degenerate"):
        generate_censoring(UniformQuantileCensoring(0.0), np.ones(5), None, rng_seed=6)
    with pytest.raises(InputError):
        UniformQuantileCensoring(1.0)


def test_assemble_strict_inequality_convention():
    ds = assemble(np.array([2.0, 3.0, 4.0]), np.array([3.0, 2.0, 4.0]))
    assert ds.times.tolist() == [2.0, 2.0, 4.0]
    assert ds.events.tolist() == [1, 0, 0]  # exact tie counts as censored


def test_oracle_is_invariant_to_censoring():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((300, 2))
    params = WeibullPHParams(shape=1.3, scale=0.05, coefficients=[0.8, -0.4])
    t = generate_event_times(params, x, rng_seed=21)
    value = oracle_cindex(params, x, t)
    for eps in (0.5, 7.0):
        generate_censoring(WeibullCensoring(1.3, 0.05, eps), t, x, rng_seed=22)
        assert oracle_cindex(params, x, t) == value
    assert 0.5 < value <= 1.0


def test_oracle_tie_modes_with_constant_covariates():
    x = np.zeros((40, 1))
    t = generate_event_times(EXP, x, rng_seed=2)
    with pytest.raises(ComputationError, match="no comparable pairs"):
        oracle_cindex(EXP, x, t)  # tied predictions are excluded


def test_oracle_race_small_scale():
    beta = 1.0
    params = WeibullPHParams(shape=1.0, scale=0.01, coefficients=[beta])
    target = np.exp(beta) / (1.0 + np.exp(beta))
    vals = []
    for k in range(20):
        rng = np.random.default_rng(subseed(31, 2, k))
        x = (rng.random(400) < 0.5).astype(float).reshape(-1, 1)
        t = generate_event_times(params, x, rng_seed=subseed(31, 0, k))
        vals.append(oracle_cindex(params, x, t))
    assert abs(np.mean(vals) - target) < 0.02


def test_params_validation():
    with pytest.raises(InputError):
        WeibullPHParams(shape=0.0, scale=1.0, coefficients=[1.0])
    with pytest.raises(InputError):
        WeibullPHParams(shape=1.0, scale=-1.0, coefficients=[1.0])
    with pytest.raises(InputError):
        WeibullCensoring(shape=1.0, scale=1.0, epsilon=-0.1)
    with pytest.raises(InputError):
        EXP.linear_predictor(np.zeros((5, 2)))
