import numpy as np
import pytest

from nudgelab import PopulationPosterior, Trials, decision_probability
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


def score_rows(posterior, treatment, params, features, **payload):
    """The unclipped ``decision_probability`` (T,) of one one-row ``Trials``
    table of ``treatment`` per row t of ``features`` (T x n), each its own
    subject ``s<t>`` carrying row t of each ``payload`` column: ``params``
    is one ``NudgeParams`` for every row, or a list of one per row."""
    tables = [one_trial(subject_id=f"s{t}", treatment=treatment, trial_index=0,
                        features=x, final_decision=0,
                        **{name: column[t] for name, column in payload.items()})
              for t, x in enumerate(np.asarray(features, dtype=float))]
    if not isinstance(params, list):
        params = [params] * len(tables)
    return decision_probability(tables, posterior, params, 0.0)
