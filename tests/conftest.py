import numpy as np
import pytest

from nudgelab import PopulationPosterior, TaskInstance, Trials
from nudgelab.nudge import _unassisted


@pytest.fixture
def two_member_posterior():
    """Tiny hand-enumerable posterior: members (1,0) and (-1,0), bias 0."""
    return PopulationPosterior(
        mean=[0.0, 0.0, 0.0],
        variance=[1.0, 1.0, 1.0],
        ensemble=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        seed=0,
    )


def singleton_posterior(weights, bias=0.0):
    row = np.append(np.asarray(weights, dtype=float), bias)
    return PopulationPosterior(
        mean=np.zeros(row.size),
        variance=np.ones(row.size),
        ensemble=row[None, :],
        seed=0,
    )


def random_posterior(rng, n_features, size=40):
    dim = n_features + 1
    mean = rng.normal(0.0, 1.0, dim)
    variance = rng.uniform(0.05, 0.8, dim)
    return PopulationPosterior.from_moments(
        mean, variance, size, seed=int(rng.integers(1 << 30))
    )


def random_task(rng, n_features):
    return TaskInstance(features=rng.random(n_features))


def unassisted(posterior, features):
    """Each trial's unassisted probability: the ensemble response at logit
    shift 0, (T,) for features (T, n)."""
    return _unassisted(posterior.ensemble, np.asarray(features, dtype=float))


def trials_of(rows):
    """A ``Trials`` table of per-row field dicts; a row without an optional
    field does not carry it."""
    names = {name for row in rows for name in row}
    return Trials(**{name: [row.get(name) for row in rows] for name in names})


def one_trial(**fields):
    """A one-row ``Trials`` table."""
    return trials_of([fields])
