"""Independent human decision model.

A logistic response over normalized task features, a diagonal-Gaussian
population posterior over the response weights fitted by maximizing a
frozen-sample ELBO with Newton's method, Monte-Carlo ensemble prediction,
and filtering of the ensemble on an observed decision.

Conventions used throughout the package:

* weight vectors carry an explicit intercept; posterior arrays have
  length ``n_features + 1`` with the intercept in the LAST coordinate,
  implemented as a constant pseudo-feature of 1;
* a probability of exactly 0.5 maps to decision 1 (single tie rule for
  every thresholding site in the package);
* every stochastic routine takes an explicit seed and is bitwise
  reproducible given it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import bernoulli_loglik, derive_seed, newton, sigmoid
from .errors import ConfigurationError, DomainError, UsageError

__all__ = [
    "TaskInstance",
    "WeightVector",
    "PopulationPosterior",
    "FilteredEnsemble",
    "PopulationFitConfig",
    "logistic_response",
    "gaussian_kl",
    "elbo_and_gradient",
    "fit_population",
    "predict_independent",
    "condition_on_decision",
]

# Variance of every coordinate of a point posterior
# (``PopulationPosterior.point``): keeps the "strictly positive variance"
# invariant of a posterior whose single member is its mean.
PINNED_VARIANCE = 1e-18


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TaskInstance:
    """One decision task: normalized features and an optional true label."""

    features: np.ndarray
    label: int | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 1 or feats.size == 0:
            raise ConfigurationError("task features must be a nonempty 1-D vector")
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError("task features must be finite")
        if np.any(feats < 0.0) or np.any(feats > 1.0):
            raise ConfigurationError("task features must lie in [0, 1]")
        if self.label is not None and self.label not in (0, 1):
            raise ConfigurationError("task label must be 0 or 1")
        object.__setattr__(self, "features", _frozen_array(feats))

    @property
    def n_features(self) -> int:
        return self.features.size


@dataclass(frozen=True)
class WeightVector:
    """Decision weights plus intercept for the logistic response."""

    weights: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ConfigurationError("weights must be a 1-D vector")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ConfigurationError("weights and bias must be finite")
        object.__setattr__(self, "weights", _frozen_array(w))
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def n_features(self) -> int:
        return self.weights.size

    def augmented(self) -> np.ndarray:
        """Weights with the intercept appended as the last coordinate."""
        return np.append(self.weights, self.bias)


def augment_features(task: TaskInstance) -> np.ndarray:
    """Feature vector with the constant pseudo-feature 1 appended."""
    return np.append(task.features, 1.0)


@dataclass(frozen=True)
class PopulationPosterior:
    """Diagonal Gaussian over decision weights plus a frozen draw ensemble.

    ``mean`` and ``variance`` have length ``n_features + 1`` (intercept
    last).  ``ensemble`` is an (S, n_features + 1) matrix whose rows are
    weight draws; it is frozen at construction and reused verbatim by
    every predictor so that all downstream expectations are deterministic.
    """

    mean: np.ndarray
    variance: np.ndarray
    ensemble: np.ndarray
    seed: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        ens = np.asarray(self.ensemble, dtype=float)
        if mean.ndim != 1 or mean.size < 2:
            raise ConfigurationError("posterior mean must be 1-D with length >= 2")
        if var.shape != mean.shape:
            raise ConfigurationError("posterior variance must match mean shape")
        if np.any(var <= 0.0):
            raise DomainError("posterior variances must be strictly positive")
        if ens.ndim != 2 or ens.shape[0] < 1 or ens.shape[1] != mean.size:
            raise ConfigurationError("ensemble must be (S, dim) with S >= 1")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
                and np.all(np.isfinite(ens))):
            raise ConfigurationError("posterior arrays must be finite")
        object.__setattr__(self, "mean", _frozen_array(mean))
        object.__setattr__(self, "variance", _frozen_array(var))
        object.__setattr__(self, "ensemble", _frozen_array(ens))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def from_moments(cls, mean, variance, size: int, seed: int) -> "PopulationPosterior":
        """Draw a fresh S-member ensemble from N(mean, diag(variance))."""
        mean = np.asarray(mean, dtype=float)
        variance = np.asarray(variance, dtype=float)
        if size < 1:
            raise ConfigurationError("ensemble size must be >= 1")
        if mean.ndim != 1 or variance.shape != mean.shape:
            raise ConfigurationError(
                f"posterior mean and variance must be 1-D of one length, got "
                f"shapes {mean.shape} and {variance.shape}")
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
        if np.any(variance <= 0.0):
            raise DomainError("variances must be strictly positive")
        rng = np.random.default_rng(seed)
        draws = mean + np.sqrt(variance) * rng.standard_normal((size, mean.size))
        return cls(mean=mean, variance=variance, ensemble=draws, seed=seed)

    @classmethod
    def point(cls, model: WeightVector) -> "PopulationPosterior":
        """Zero-variance collapse onto a single weight vector.

        The singleton ensemble equals the mean exactly (the variance -> 0
        limit of a draw); used by the deterministic-model ablation.
        """
        mean = model.augmented()
        variance = np.full(mean.size, PINNED_VARIANCE)
        return cls(mean=mean, variance=variance, ensemble=mean[None, :], seed=0)

    @property
    def n_features(self) -> int:
        return self.mean.size - 1

    @property
    def ensemble_size(self) -> int:
        return self.ensemble.shape[0]


@dataclass(frozen=True)
class FilteredEnsemble:
    """Subset of a posterior ensemble consistent with an observed decision."""

    members: np.ndarray
    source_size: int
    fallback_used: bool

    def __post_init__(self):
        members = np.asarray(self.members, dtype=float)
        if members.ndim != 2 or members.shape[0] < 1:
            raise ConfigurationError("filtered ensemble must be nonempty")
        object.__setattr__(self, "members", _frozen_array(members))

    @property
    def size(self) -> int:
        return self.members.shape[0]


@dataclass(frozen=True)
class PopulationFitConfig:
    """Settings for the variational population fit (``iterations`` caps its
    Newton steps)."""

    iterations: int = 50
    seed: int = 0
    train_samples: int = 64
    ensemble_size: int = 1000
    prior_variance: float = 1.0

    def __post_init__(self):
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.train_samples <= 0 or self.ensemble_size <= 0:
            raise ConfigurationError("sample counts must be positive")
        if self.prior_variance <= 0:
            raise ConfigurationError("prior variance must be positive")


def logistic_response(task: TaskInstance, w: WeightVector) -> float:
    """Probability of deciding 1: sigmoid(w . x + bias)."""
    if task.n_features != w.n_features:
        raise ConfigurationError(
            f"task has {task.n_features} features but weights expect {w.n_features}"
        )
    return float(sigmoid(float(w.weights @ task.features) + w.bias))


def gaussian_kl(posterior: PopulationPosterior, prior_variance: float = 1.0) -> float:
    """Closed-form KL from the diagonal posterior to the isotropic zero-mean prior.

    KL(N(mu, diag(v)) || N(0, pv*I)) summed over coordinates; nonnegative,
    and zero exactly when mu = 0 and v = pv.
    """
    if prior_variance <= 0:
        raise DomainError("prior variance must be strictly positive")
    mu = posterior.mean
    var = posterior.variance
    ratio = var / prior_variance
    return float(0.5 * np.sum(ratio + mu * mu / prior_variance - 1.0 - np.log(ratio)))


def elbo_and_gradient(mean, log_std, features_bias, labels, noise, prior_variance):
    """Frozen-sample ELBO of the diagonal-Gaussian logistic model, with gradient.

    The posterior is parameterized as N(mean, diag(exp(2*log_std))) and the
    expectation is taken over the fixed reparameterization draws
    ``weights = mean + exp(log_std) * noise``.  Because ``noise`` is frozen,
    the value is a deterministic, differentiable function of (mean, log_std)
    and the returned gradient is exact for it.

    Parameters
    ----------
    mean, log_std : (d,) arrays of variational parameters.
    features_bias : (N, d) design matrix with the pseudo-feature column.
    labels : (N,) array of 0/1 independent decisions.
    noise : (S, d) frozen standard-normal draws.
    prior_variance : scalar variance of the zero-mean isotropic prior.

    Returns
    -------
    (elbo, grad_mean, grad_log_std)
    """
    mean = np.asarray(mean, dtype=float)
    log_std = np.asarray(log_std, dtype=float)
    std = np.exp(log_std)
    weights = mean[None, :] + std[None, :] * noise        # (S, d)
    logits = weights @ features_bias.T                    # (S, N)
    loglik = float(np.mean(np.sum(bernoulli_loglik(labels[None, :], logits), axis=1)))

    var = std * std
    ratio = var / prior_variance
    kl = 0.5 * np.sum(ratio + mean * mean / prior_variance - 1.0 - np.log(ratio))

    residual = labels[None, :] - sigmoid(logits)          # (S, N)
    per_draw = residual @ features_bias                   # (S, d)
    grad_mean = per_draw.mean(axis=0) - mean / prior_variance
    grad_std = (per_draw * noise).mean(axis=0) - (std / prior_variance - 1.0 / std)
    grad_log_std = grad_std * std
    return float(loglik - kl), grad_mean, grad_log_std


def _elbo_hessian(mean, std, features_bias, noise, prior_variance):
    """Hessian in (mean, std) of ``elbo_and_gradient``'s ELBO: each draw's
    -X^T diag(p(1-p)) X through dw/d(mean, std) = [I, diag(noise_s)], plus
    the prior's -1/prior_variance and the entropy's -1/std^2 diagonals."""
    probs = sigmoid((mean + std * noise) @ features_bias.T)          # (S, N)
    curvature = np.einsum("sn,ni,nj->sij", probs * (1.0 - probs),
                          features_bias, features_bias)              # (S, d, d)
    cross = curvature * noise[:, None, :]
    hessian = -np.block([[curvature.mean(axis=0), cross.mean(axis=0)],
                         [cross.mean(axis=0).T, (noise[:, :, None] * cross).mean(axis=0)]])
    hessian[np.diag_indices_from(hessian)] -= (
        1.0 / prior_variance + np.append(np.zeros(mean.size), 1.0 / (std * std)))
    return hessian


def fit_population(
    data: Sequence[tuple[TaskInstance, int]],
    config: PopulationFitConfig = PopulationFitConfig(),
) -> PopulationPosterior:
    """Fit the population posterior to independent decisions by maximizing the ELBO.

    With its draws frozen for the whole fit, the ELBO is a strictly concave
    function of (mean, std) on std > 0, so Newton's method from mean 0 and
    std 0.3 solves it to its maximum.  The prediction ensemble is drawn
    from the fitted moments using ``config.seed``.
    """
    if len(data) == 0:
        raise UsageError("fit_population requires at least one observation")
    n = data[0][0].n_features
    for task, label in data:
        if task.n_features != n:
            raise ConfigurationError("all tasks must share one dimensionality")
        if label not in (0, 1):
            raise UsageError("independent decisions must be 0 or 1")

    dim = n + 1
    features_bias = np.stack([augment_features(task) for task, _ in data])
    labels = np.asarray([label for _, label in data], dtype=float)

    noise_rng = np.random.default_rng(derive_seed(config.seed, "elbo-noise"))
    noise = noise_rng.standard_normal((config.train_samples, dim))

    def terms(theta):
        mean, std = theta[:dim], theta[dim:]
        if np.any(std <= 0.0):
            return None
        _, g_mean, g_log_std = elbo_and_gradient(
            mean, np.log(std), features_bias, labels, noise, config.prior_variance
        )
        hessian = _elbo_hessian(mean, std, features_bias, noise, config.prior_variance)
        return np.concatenate([g_mean, g_log_std / std]), hessian

    theta = newton(terms, np.concatenate([np.zeros(dim), np.full(dim, 0.3)]),
                   config.iterations)
    return PopulationPosterior.from_moments(
        theta[:dim], theta[dim:] ** 2, config.ensemble_size, seed=config.seed
    )


def ensemble_probability(members: np.ndarray, task: TaskInstance,
                         shift: float = 0.0) -> float:
    """Mean logistic response of an ensemble, with an optional scalar logit shift."""
    logits = members @ augment_features(task)
    if shift != 0.0:
        logits = logits + shift
    return float(np.mean(sigmoid(logits)))


def _check_dims(posterior: PopulationPosterior, task: TaskInstance):
    if task.n_features != posterior.n_features:
        raise ConfigurationError(
            f"task has {task.n_features} features but posterior expects "
            f"{posterior.n_features}"
        )


def predict_independent(posterior: PopulationPosterior,
                        task: TaskInstance) -> tuple[float, int]:
    """Ensemble-average probability of deciding 1, and the thresholded decision."""
    _check_dims(posterior, task)
    probability = ensemble_probability(posterior.ensemble, task)
    return probability, int(probability >= 0.5)


def condition_on_decision(posterior: PopulationPosterior, task: TaskInstance,
                          observed: int) -> FilteredEnsemble:
    """Keep the ensemble members whose thresholded response matches ``observed``.

    If no member reproduces the observed decision the full ensemble is
    returned with ``fallback_used`` set, so downstream expectations stay
    well defined.
    """
    _check_dims(posterior, task)
    if observed not in (0, 1):
        raise UsageError("observed decision must be 0 or 1")
    probs = sigmoid(posterior.ensemble @ augment_features(task))
    keep = (probs >= 0.5) == bool(observed)
    source = posterior.ensemble_size
    if not np.any(keep):
        return FilteredEnsemble(members=posterior.ensemble, source_size=source,
                                fallback_used=True)
    return FilteredEnsemble(members=posterior.ensemble[keep], source_size=source,
                            fallback_used=False)
