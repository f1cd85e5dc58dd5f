"""Shared numeric helpers: stable transforms, Newton steps, seeds."""

from __future__ import annotations

import zlib

import numpy as np


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


# log of the largest float: e^x overflows past it
_EXP_MAX = float(np.log(np.finfo(float).max))


def sigmoid(z):
    """Logistic function 1 / (1 + e^-z), the formula of ``nudge``'s kernel.

    -z is capped at ``_EXP_MAX``, so e^-z never overflows and no call
    warns; below z = -709.78, where the kernel's e^-z is inf and its
    sigmoid 0, this gives 5.6e-309 instead.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(np.negative(z), _EXP_MAX)))
