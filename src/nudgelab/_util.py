"""Shared numeric helpers: stable transforms, Adam and Newton steps, seeds."""

from __future__ import annotations

import zlib

import numpy as np
from scipy.special import expit


def softplus(x):
    """log(1 + exp(x)), overflow-safe."""
    return np.logaddexp(0.0, x)


def softplus_inverse(y):
    """Inverse of softplus for y > 0: log(exp(y) - 1)."""
    y = np.asarray(y, dtype=float)
    return y + np.log(-np.expm1(-y))


def bernoulli_loglik(y, z):
    """Pointwise log Bernoulli(y | sigmoid(z)) = y*z - softplus(z)."""
    return y * z - np.logaddexp(0.0, z)


def derive_seed(*parts) -> int:
    """Fold arbitrary parts (ints, strings) into one stable 32-bit seed.

    Uses CRC32 chaining, so the result is identical across platforms and
    interpreter runs; used wherever a sub-stream seed is needed (per
    subject, per restart, per evaluation run).
    """
    acc = 0
    for part in parts:
        data = str(part).encode("utf-8")
        acc = zlib.crc32(data, acc)
    return acc & 0xFFFFFFFF


class Adam:
    """Plain deterministic Adam on a flat parameter vector (minimization)."""

    def __init__(self, size: int, learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # the moments are updated in place, in the order of
        # m = beta1 * m + (1 - beta1) * grad and
        # step = learning_rate * m_hat / (sqrt(v_hat) + eps)
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        step = self.m / (1.0 - self.beta1 ** self.t)
        step *= self.learning_rate
        denominator = self.v / (1.0 - self.beta2 ** self.t)
        np.sqrt(denominator, out=denominator)
        denominator += self.eps
        step /= denominator
        return theta - step


NEWTON_TOL = 1e-10


def newton(terms, theta, max_steps):
    """Stationary point of a strictly convex or concave function, from ``theta``.

    ``terms(theta)`` gives its (gradient, Hessian), or None outside its
    domain; a step is halved only while it leaves the domain.  Stops after
    a step of at most ``NEWTON_TOL`` in every coordinate, or ``max_steps``.
    """
    current = terms(theta)
    for _ in range(max_steps):
        gradient, hessian = current
        step = -np.linalg.solve(hessian, gradient)
        while (current := terms(theta + step)) is None:
            step = 0.5 * step
        theta = theta + step
        if np.abs(step).max() <= NEWTON_TOL:
            break
    return theta


def sigmoid(z):
    """Numerically stable logistic function."""
    return expit(z)
