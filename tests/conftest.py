import functools

import numpy as np
import pytest

from survconcord import SurvivalDataset, profiles


@pytest.fixture
def four_subjects():
    """Hand-enumerated fixture: one censored subject sharing its time with an event."""
    ds = SurvivalDataset(
        times=[1.0, 2.0, 3.0, 3.0],
        events=[1, 1, 0, 1],
        subject_ids=("a", "b", "c", "d"),
    )
    risks = np.array([0.9, 0.5, 0.7, 0.2])
    return ds, risks


@pytest.fixture
def profile_builds(monkeypatch):
    """Names of the profiles constructed from here on, builtins not yet built."""
    fresh = functools.cache(profiles._builtins.__wrapped__)
    monkeypatch.setattr(profiles, "_builtins", fresh)
    built = []
    post_init = profiles.Profile.__post_init__

    def counting(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(profiles.Profile, "__post_init__", counting)
    return built


def random_instance(rng, n_max=200, tie_rich=False):
    """Random censored dataset and risks, with tied times and predictions."""
    n = int(np.exp(rng.uniform(np.log(2), np.log(n_max))))
    n = max(n, 2)
    if tie_rich:
        times = rng.integers(1, max(2, n // 4), n).astype(float)
        risks = np.round(rng.normal(size=n), 1)
    else:
        times = np.round(rng.exponential(10.0, n), 1)
        risks = rng.normal(size=n)
    events = (rng.random(n) < rng.uniform(0.3, 1.0)).astype(int)
    return SurvivalDataset(times=times, events=events), risks
