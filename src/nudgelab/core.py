"""Independent human decision model.

A logistic response over normalized task features, and a diagonal-Gaussian
population posterior over the response weights fitted by maximizing a
frozen-sample ELBO with Newton's method.  A set of N tasks is an (N, n)
feature matrix with values in [0, 1]; ``fit_population`` takes one with the
N unassisted 0/1 decisions.  The posterior carries a frozen Monte-Carlo
ensemble; ``nudgelab.nudge.EnsembleResponse`` averages its members'
responses, unassisted (at logit shift 0) or nudged, and filters it on an
observed decision.

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

import numpy as np

from ._util import bernoulli_loglik, derive_seed, newton, sigmoid
from .errors import ConfigurationError, DomainError, UsageError

__all__ = [
    "WeightVector",
    "PopulationPosterior",
    "PopulationFitConfig",
    "gaussian_kl",
    "elbo_and_gradient",
    "fit_population",
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
        # features lie in [0, 1], so a member's logit, and every partial sum
        # of it, is at most sum |w| + |b|; twice that leaves room for rounding
        with np.errstate(over="ignore"):
            if not np.isfinite(2.0 * np.abs(ens).sum(axis=1)).all():
                raise ConfigurationError(
                    "posterior members are too large: a logit could overflow")
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
        try:
            draws = mean + np.sqrt(variance) * rng.standard_normal((size, mean.size))
        except (MemoryError, ValueError, OverflowError):
            raise ConfigurationError(f"cannot allocate {size} ensemble members") from None
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


def _kl(mean, variance, prior_variance):
    """KL(N(mean, diag(variance)) || N(0, prior_variance * I))."""
    ratio = variance / prior_variance
    return 0.5 * np.sum(ratio + mean * mean / prior_variance - 1.0 - np.log(ratio))


def gaussian_kl(posterior: PopulationPosterior, prior_variance: float = 1.0) -> float:
    """Closed-form KL from the diagonal posterior to the isotropic zero-mean prior.

    KL(N(mu, diag(v)) || N(0, pv*I)) summed over coordinates; nonnegative,
    and zero exactly when mu = 0 and v = pv.
    """
    if prior_variance <= 0:
        raise DomainError("prior variance must be strictly positive")
    return float(_kl(posterior.mean, posterior.variance, prior_variance))


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

    kl = _kl(mean, std * std, prior_variance)

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
    features,
    labels,
    config: PopulationFitConfig = PopulationFitConfig(),
) -> PopulationPosterior:
    """Fit the population posterior to independent decisions by maximizing the ELBO.

    ``features`` is the (N, n) task matrix, with values in [0, 1], and
    ``labels`` the N 0/1 decisions.  With its draws frozen for the whole
    fit, the ELBO is a strictly concave function of (mean, std) on std > 0,
    so Newton's method from mean 0 and std 0.3 solves it to its maximum.
    The prediction ensemble is drawn from the fitted moments using
    ``config.seed``.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.shape[:1] == (0,):
        raise UsageError("fit_population requires at least one observation")
    if features.ndim != 2 or features.shape[1] == 0:
        raise ConfigurationError("task features must be a nonempty (N, n) matrix")
    if not np.isfinite(features).all():
        raise ConfigurationError("task features must be finite")
    if ((features < 0.0) | (features > 1.0)).any():
        raise ConfigurationError("task features must lie in [0, 1]")
    if labels.shape != (len(features),):
        raise UsageError(f"{labels.size} decisions for {len(features)} tasks")
    if not np.isin(labels, (0, 1)).all():
        raise UsageError("independent decisions must be 0 or 1")

    dim = features.shape[1] + 1
    features_bias = np.column_stack([features, np.ones(len(features))])
    labels = labels.astype(float)

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
