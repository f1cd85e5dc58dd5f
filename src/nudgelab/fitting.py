"""Per-subject maximum-likelihood estimation of nudge parameters.

The likelihood of a subject's final decisions is evaluated under the
frozen posterior ensemble, with the probability kernel of
``nudgelab.nudge``.  Shift vectors are optimized through smooth
unconstrained reparameterizations (free signed scale, softplus
magnitudes) by multi-restart Adam; every subject and restart of one call
runs in a single stacked Adam loop.  Gradients are analytic, exact for
the frozen-sample objective; inside the Adam loop a large ensemble's
response is interpolated from a table of the exact response, one per
distinct trial (copies of a trial stacked by several subjects share it),
built a block of intervals at a time when the fit first reads one of them,
and the gradient is exact for that interpolant.  The table packs each
built interval's six coefficients as one row of a growing array and keeps
each interval's row number in a slot, so a lookup is one gather of slots
and one of coefficients.  An evaluation works on (restarts, trials) arrays:
each trial's shift comes from one gather of its block's shift vector and
one add per feature, and the gradient's block sums are one ``bincount``.  An
explanation trial's probability is linear in the attention weight, so
its penalized NLL is convex in it and a stacked safeguarded Newton solve
finds each subject's optimum exactly, with no restarts.  Either way each
subject's result is the same bits as when it is fitted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import NEWTON_TOL, derive_seed, sigmoid, softplus, softplus_inverse
from .core import PopulationPosterior
from .errors import ConfigurationError, UsageError
from .nudge import (
    PROBABILITY_EPS,
    EnsembleResponse,
    NudgeParams,
    SignedSharedSignVector,
    TreatmentLayout,
    attention_mixture,
    explanation_means,
)
from .records import Treatment, Trials

__all__ = [
    "FitConfig",
    "NudgeFitResult",
    "NudgeObjective",
    "fit_nudge",
    "fit_nudge_batch",
]

# A fit counts as converged when the final gradient of its penalized
# objective is this small (mean-NLL scale) and no trial probability sits on
# the clip boundary.
_GRADIENT_TOL = 1e-2

# Grid of logit shifts on which _EnsembleResponse tabulates a trial's ensemble
# response: step 0.2 over [-24, 24], wide enough for most shifts a delayed
# fit visits.  The quintic Hermite error is at most
# step^6 / 46080 * max|d^6 sigmoid / dx^6| = 5.7e-10 in probability.
_GRID_LO = -24.0
_GRID_STEP = 0.2
_GRID_NODES = 241
# Intervals of one trial that the table builds at once; it divides the 240
# intervals.  A fit's shifts drift, so it reads neighbouring intervals.
_BLOCK = 8
# The explanation solve's step cap; bisection alone would reach NEWTON_TOL in
# 34 steps.
_ATTENTION_MAX_STEPS = 100
# Smallest ensemble whose response is tabulated.  Below it a fit's exact
# evaluations cost less than the table's lookups (see CHANGES.md).
_TABULATE_MIN_MEMBERS = 128
# Adam's step size (a tenth of it over the final 20% of iterations), its
# moment decay rates and its denominator guard.
_LEARNING_RATE = 0.05
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Settings for the nudge-parameter MLE.  ``iterations``, ``seed`` and
    ``restarts`` drive the shift-vector fits' Adam loop; the explanation
    solve uses only ``l2_penalty``."""

    iterations: int = 500
    seed: int = 0
    restarts: int = 4
    l2_penalty: float = 0.0

    def __post_init__(self):
        if self.iterations <= 0:
            raise ConfigurationError("iterations must be positive")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if self.l2_penalty < 0:
            raise ConfigurationError("l2_penalty must be nonnegative")


@dataclass(frozen=True)
class NudgeFitResult:
    """One subject's fit.  ``abandoned_restarts`` counts the restarts whose
    objective went non-finite and that the Adam loop dropped."""

    params: NudgeParams
    train_nll: float
    converged: bool
    restart_index: int
    theta: np.ndarray
    abandoned_restarts: int = 0


class _EnsembleResponse(EnsembleResponse):
    """``EnsembleResponse`` with, for an ensemble of at least
    ``_TABULATE_MIN_MEMBERS`` members, a table of it on a fixed grid of
    shifts, one per distinct trial (row).

    ``interpolated`` evaluates the quintic Hermite interpolant of p_t and
    its slope between the grid's nodes; a shift off the grid is evaluated
    exactly, for that trial only.  A lookup that reads an interval whose
    ``slot`` (intervals x rows, interval-major) is still -1 builds its
    block of ``_BLOCK`` intervals of that row, so a fit pays only for the
    blocks it visits.  Each built interval's polynomial coefficients are
    one row of ``coef`` (built x 6, packed in build order; the array grows
    by doubling and rows from ``built`` on are spare), and its slot is that
    row, so a lookup gathers the slots and then every interval's six
    coefficients at once.
    """

    def __init__(self, ensemble: np.ndarray, features: np.ndarray,
                 initial: np.ndarray | None, min_chunk: int):
        super().__init__(ensemble, features, initial, min_chunk)
        self.tabulated = len(ensemble) >= _TABULATE_MIN_MEMBERS
        if self.tabulated:
            # slot k * rows + r: the coef row of interval k of row r
            self.slot = np.full((_GRID_NODES - 1) * len(self.base), -1, dtype=np.intp)
            # row 0 is always finite, for the off-grid lookups to read
            self.coef = np.zeros((_BLOCK, 6))
            self.built = 0

    def interpolated(self, shift: np.ndarray):
        """(p, dp/dc) from the table, for shifts of shape (..., T)."""
        u = (shift - _GRID_LO) / _GRID_STEP
        node = np.floor(u)
        on_grid = (node >= 0.0) & (node <= _GRID_NODES - 2)
        all_on_grid = on_grid.all()
        if not all_on_grid:
            off = ~on_grid
            node[off] = 0.0
            u[off] = 0.0
        u -= node
        at = node.astype(np.intp) * len(self.base) + self.columns
        slot = self.slot.take(at)
        if not all_on_grid:
            slot[off] = 0
        missing = slot < 0
        if missing.any():
            self._build(at[missing])
            slot[missing] = self.slot.take(at[missing])
        # p = sum_j coef_j u^j and dp/du, by Horner's rule on the columns
        # of one gather, flattened
        coef = self.coef.take(slot.ravel(), axis=0).T                    # (6, ... * T)
        u = u.ravel()
        p = coef[5] * u
        dp_du = 5.0 * coef[5]
        for j in (4, 3, 2, 1):
            p += coef[j]
            p *= u
            dp_du *= u
            dp_du += j * coef[j]
        p += coef[0]
        p = p.reshape(shift.shape)
        dp_dc = (dp_du / _GRID_STEP).reshape(shift.shape)
        if not all_on_grid:
            p[off], dp_dc[off], _ = self._rows(self.columns[np.nonzero(off)[-1]],
                                               shift[off])
        return p, dp_dc

    def _build(self, at):
        """Build the blocks that hold the (flat) intervals ``at``: evaluate
        each block's nodes exactly and pack each of its intervals' ``coef``
        row, the quintic Hermite polynomial in u = (c - c_k) / step that
        matches p, step * dp/dc and step^2 * d2p/dc2 at both ends."""
        n_rows = len(self.base)
        k, r = np.divmod(at, n_rows)
        block, r = np.divmod(np.unique(k // _BLOCK * n_rows + r), n_rows)
        k = block[:, None] * _BLOCK + np.arange(_BLOCK + 1)            # (blocks, nodes)
        p, slope, curv = (values.reshape(k.shape) for values in self._rows(
            np.repeat(r, _BLOCK + 1), _GRID_LO + _GRID_STEP * k.ravel(),
            derivatives=2))
        d, s = _GRID_STEP * slope, _GRID_STEP ** 2 * curv
        p0, d0, d1, s0, s1 = p[:, :-1], d[:, :-1], d[:, 1:], s[:, :-1], s[:, 1:]
        rise = np.diff(p)
        start, end = self.built, self.built + p0.size
        if end > len(self.coef):
            grown = np.empty((max(end, 2 * len(self.coef)), 6))
            grown[:start] = self.coef[:start]
            self.coef = grown
        self.coef[start:end] = np.stack((
            p0, d0, 0.5 * s0,
            10.0 * rise - 6.0 * d0 - 4.0 * d1 - 0.5 * (3.0 * s0 - s1),
            -15.0 * rise + 8.0 * d0 + 7.0 * d1 + 0.5 * (3.0 * s0 - 2.0 * s1),
            6.0 * rise - 3.0 * (d0 + d1) - 0.5 * (s0 - s1)), axis=-1).reshape(-1, 6)
        self.slot[(k[:, :-1] * n_rows + r[:, None]).ravel()] = np.arange(start, end)
        self.built = end


class _GroupSum:
    """Sums of (R, T, ...) values over trials into ``groups[t]``: an
    (R, n_groups, ...) array.  Each sum adds its terms in trial order, so
    a group's sum does not depend on the other groups.  The ``bincount``
    index of each input shape is built once and kept."""

    def __init__(self, groups, n_groups):
        self.groups = groups
        self.n_groups = n_groups
        self.index = {}

    def __call__(self, values):
        n_rows, _, *tail = values.shape
        width = math.prod(tail)
        index = self.index.get(values.shape)
        if index is None:
            index = ((np.arange(n_rows)[:, None] * self.n_groups
                      + self.groups)[..., None] * width + np.arange(width)).ravel()
            self.index[values.shape] = index
        sums = np.bincount(index, weights=values.ravel(),
                           minlength=n_rows * self.n_groups * width)
        return sums.reshape((n_rows, self.n_groups, *tail))


class NudgeObjective:
    """Mean negative log-likelihood of each subject's trials, with gradient.

    ``trial_sets`` is a list of K subjects' ``Trials``, stacked as
    ``layout`` (a ``TreatmentLayout``), and each subject's mean and
    gradient sum over its own trials only.  Everything that depends only
    on the trials and the frozen ensemble (conditioning masks, masked
    response means, response tables) is computed once, straight into the
    stacked arrays.

    ``theta`` is (R, K, P): R stacked parameter rows per subject, such as
    restarts.  P layouts:

    * immediate    — [scale, raw_magnitudes x n]
    * delayed      — [scale_affirm, raw_affirm x n, scale_contra, raw_contra x n]
    * explanation  — [attention], read as the nearest point of [0, 1]

    The probabilities are those of ``nudgelab.nudge``'s kernel, clipped
    to [``PROBABILITY_EPS``, 1 - ``PROBABILITY_EPS``] in the NLL.  Immediate
    and delayed assistance move trial t only through a scalar logit shift
    c_t, so its probability is a fixed 1-D function of c_t
    (``EnsembleResponse``, here with its table: ``_EnsembleResponse``);
    ``value_and_gradient``, the objective the Adam loop steps, interpolates
    the table where it has one.  ``fit_summary`` and ``probabilities`` are
    exact.  An explanation trial's probability is linear in the attention
    weight between its two response means (``explanation_means``), so
    ``attention_derivatives`` gives the exact first and second derivatives
    that its 1-D solve needs.
    """

    def __init__(self, trial_sets, ensemble: np.ndarray,
                 treatment: Treatment, *, l2_penalty: float = 0.0):
        self.treatment = Treatment(treatment)
        if self.treatment == Treatment.INDEPENDENT:
            raise UsageError("independent treatment has no nudge parameters to fit")
        self.layout = layout = TreatmentLayout(trial_sets, ensemble, self.treatment)
        self.n = layout.features.shape[1]
        self.l2_penalty = float(l2_penalty)

        self.n_subjects = layout.n_subjects
        self.subject_trials = np.asarray(layout.sizes, dtype=float)     # (K,)
        self.trial_count = self.subject_trials[layout.subject]          # (T,)
        self.by_subject = _GroupSum(layout.subject, self.n_subjects)
        self.final = layout.final.astype(float)
        self.not_final = 1.0 - self.final

        if self.treatment == Treatment.EXPLANATION:
            self.mean_focused, self.mean_ignored = explanation_means(
                ensemble, layout.features, layout.masks)                # (T,) each
            return
        self.n_branches = layout.n_branches
        self.by_block = _GroupSum(layout.block, self.n_subjects * self.n_branches)
        self.response = _EnsembleResponse(ensemble, layout.features, layout.initial,
                                          min_chunk=max(layout.sizes))

    @property
    def n_params(self) -> int:
        if self.treatment == Treatment.EXPLANATION:
            return 1
        return self.n_branches * (1 + self.n)

    # -- parameterization -------------------------------------------------

    def params_from_theta(self, theta: np.ndarray) -> NudgeParams:
        """One subject's parameters from its (P,) vector."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ConfigurationError(f"theta must have shape ({self.n_params},)")
        if self.treatment == Treatment.EXPLANATION:
            return NudgeParams.for_explanation(float(np.clip(theta[0], 0.0, 1.0)))
        vectors = [SignedSharedSignVector(scale=float(block[0]),
                                          magnitudes=softplus(block[1:]))
                   for block in theta.reshape(self.n_branches, 1 + self.n)]
        if self.treatment == Treatment.IMMEDIATE:
            return NudgeParams.for_immediate(*vectors)
        return NudgeParams.for_delayed(*vectors)

    def initial_theta(self, restart: int, seed: int) -> np.ndarray:
        """A shift-vector fit's start: restart 0 starts near zero nudge;
        restart 1 flips the scale sign; later restarts are random."""
        if restart in (0, 1):
            scale = 0.5 if restart == 0 else -0.5
            small = float(softplus_inverse(0.02))
            block = np.concatenate([[scale], np.full(self.n, small)])
            return np.tile(block, self.n_branches)
        rng = np.random.default_rng(derive_seed(seed, "init", restart))
        return np.concatenate([
            draw for _ in range(self.n_branches)
            for draw in (rng.normal(0.0, 1.5, size=1),
                         rng.normal(-1.0, 1.0, size=self.n))
        ])

    def _stacked(self, theta) -> np.ndarray:
        """theta as a float (R, K, P) array."""
        theta = np.asarray(theta, dtype=float)
        if theta.ndim != 3 or theta.shape[1:] != (self.n_subjects, self.n_params):
            raise ConfigurationError(
                f"theta must have shape (R, {self.n_subjects}, {self.n_params})")
        return theta

    # -- objective ---------------------------------------------------------

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Unclipped per-trial probabilities of a final decision of 1: (R, T)."""
        return self._forward(self._stacked(theta), tabulated=False)[0]

    def value_and_gradient(self, theta: np.ndarray):
        """The objective the Adam loop steps: each subject's mean NLL plus
        its L2 penalty, (R, K), and the gradient in theta, (R, K, P).

        Where the objective has a response table the ensemble response is
        interpolated from it, and the gradient is exact for the
        interpolant.
        """
        theta = self._stacked(theta)
        value, grad, _ = self._nll(theta, tabulated=True)
        if self.l2_penalty > 0.0:
            value_pen, grad_pen = self._penalty(theta)
            value = value + value_pen
            grad = grad + grad_pen
        return value, grad

    def fit_summary(self, theta: np.ndarray):
        """A fit's report, from one exact pass without the penalty: each
        subject's mean NLL (R, K), its gradient (R, K, P), and whether any
        of its probabilities sits on the clip boundary (R, K)."""
        value, grad, probs = self._nll(self._stacked(theta), tabulated=False)
        on_boundary = (probs <= PROBABILITY_EPS) | (probs >= 1.0 - PROBABILITY_EPS)
        clipped = self.by_subject(on_boundary.astype(float)) > 0.0
        return value, grad, clipped

    def _nll(self, theta, tabulated):
        """Mean NLL (R, K), its gradient (R, K, P) and the unclipped
        probabilities (R, T)."""
        probs, backward = self._forward(theta, tabulated)
        eps = PROBABILITY_EPS
        clipped = np.clip(probs, eps, 1.0 - eps)
        loglik = self.final * np.log(clipped) + self.not_final * np.log1p(-clipped)
        value = -self.by_subject(loglik) / self.subject_trials
        interior = (probs > eps) & (probs < 1.0 - eps)
        dvalue_dp = np.where(
            interior,
            (clipped - self.final) / (clipped * (1.0 - clipped)) / self.trial_count,
            0.0,
        )
        return value, backward(dvalue_dp), probs

    def _forward(self, theta, tabulated):
        n_rows = theta.shape[0]
        if self.treatment == Treatment.EXPLANATION:
            raw = theta[..., 0]
            attention = np.clip(raw, 0.0, 1.0)                           # (R, K)
            probs = self._mixture(attention)

            def backward(dvalue_dp):
                d_attention = self.by_subject(
                    dvalue_dp * (self.mean_focused - self.mean_ignored))
                # zero beyond [0, 1], where the clip is flat; at a bound,
                # only the part that points into [0, 1] (the KKT residual)
                d_attention[raw == 0.0] = np.minimum(d_attention[raw == 0.0], 0.0)
                d_attention[raw == 1.0] = np.maximum(d_attention[raw == 1.0], 0.0)
                d_attention[(raw < 0.0) | (raw > 1.0)] = 0.0
                return d_attention[..., None]

            return probs, backward

        layout = self.layout
        blocks = theta.reshape(n_rows, -1, 1 + self.n)                  # (R, K*B, 1+n)
        mags = softplus(blocks[..., 1:])
        deltas = blocks[..., :1] * mags                                  # (R, K*B, n)
        shift = layout.shift(deltas)
        if tabulated and self.response.tabulated:
            probs, slope = self.response.interpolated(shift)
        else:
            probs, slope = self.response.exact(shift)

        def backward(dvalue_dp):
            dshift = dvalue_dp * slope * layout.direction                # (R, T)
            ddelta = self.by_block(dshift[..., None] * layout.features)  # (R, K*B, n)
            return _theta_gradient(blocks, mags, ddelta).reshape(theta.shape)

        return probs, backward

    def _mixture(self, attention):
        """Explanation trials' probabilities (R, T) at attention (R, K)."""
        return attention_mixture(attention[:, self.layout.subject], self.mean_focused,
                                 self.mean_ignored)

    def attention_derivatives(self, attention):
        """First and second derivatives of each subject's penalized mean
        NLL in its attention weight, (K,) each, at ``attention`` (K,) in
        [0, 1] (in (0, 1) with a penalty).  Clipped trials add nothing."""
        probs = self._mixture(attention[None])[0]                        # (T,)
        eps = PROBABILITY_EPS
        interior = (probs > eps) & (probs < 1.0 - eps)
        spread = np.where(interior, self.mean_focused - self.mean_ignored, 0.0)
        probs = np.clip(probs, eps, 1.0 - eps)
        y = self.final
        dnll_dp = (probs - y) / (probs * (1.0 - probs))
        d2nll_dp2 = y / probs ** 2 + (1.0 - y) / (1.0 - probs) ** 2
        terms = np.stack([dnll_dp * spread, d2nll_dp2 * spread ** 2], axis=-1)
        sums = self.by_subject(terms[None])[0]                           # (K, 2)
        first, second = (sums / self.subject_trials[:, None]).T
        if self.l2_penalty > 0.0:
            _, d_penalty, d2_penalty = _logit_penalty(attention, self.l2_penalty)
            first = first + d_penalty
            second = second + d2_penalty
        return first, second

    def _penalty(self, theta):
        if self.treatment == Treatment.EXPLANATION:
            value, grad, _ = _logit_penalty(np.clip(theta[..., 0], 0.0, 1.0),
                                            self.l2_penalty)
            return value, grad[..., None]
        blocks = theta.reshape(theta.shape[:2] + (self.n_branches, 1 + self.n))
        mags = softplus(blocks[..., 1:])
        deltas = blocks[..., :1] * mags
        value = 0.5 * self.l2_penalty * (deltas * deltas).reshape(
            theta.shape[:2] + (-1,)).sum(axis=-1)
        grad = _theta_gradient(blocks, mags, self.l2_penalty * deltas)
        return value, grad.reshape(theta.shape)


def _logit_penalty(attention, l2_penalty):
    """The attention weight's ridge penalty 0.5 * l2 * logit(a)^2 and its
    first and second derivatives in a; infinite at a = 0 and a = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logit = np.log(attention) - np.log1p(-attention)
        variance = attention * (1.0 - attention)                         # 1 / dlogit/da
        first = l2_penalty * logit / variance
        second = l2_penalty * (1.0 - (1.0 - 2.0 * attention) * logit) / variance ** 2
    return 0.5 * l2_penalty * logit ** 2, first, second


def _theta_gradient(blocks, mags, ddelta):
    """Gradient in theta, given the gradient in each block's realized shift
    vector delta = scale * softplus(raw); blocks are [scale, raw] rows."""
    dscale = (ddelta * mags).sum(axis=-1, keepdims=True)
    dmags = blocks[..., :1] * ddelta * sigmoid(blocks[..., 1:])
    return np.concatenate([dscale, dmags], axis=-1)


def _minimize(objective: NudgeObjective, config: FitConfig, seeds):
    """Multi-restart Adam on every (restart, subject) row at once.

    Returns each subject's best iterate ever visited (so the result is never
    worse than any start), its restart and its number of abandoned rows: the
    first restart to reach a subject's lowest value wins, and within a
    restart the first iteration.  A row whose value goes non-finite is
    abandoned on its own.
    """
    theta = np.array([[objective.initial_theta(restart, seed) for seed in seeds]
                      for restart in range(config.restarts)])            # (R, K, P)
    m, v = np.zeros(theta.shape), np.zeros(theta.shape)                  # moments
    best_value = np.full(theta.shape[:2], np.inf)
    best_theta = theta.copy()
    live = np.ones(theta.shape[:2], dtype=bool)
    switch = int(0.8 * config.iterations)
    for iteration in range(config.iterations + 1):
        value, grad = objective.value_and_gradient(theta)
        live &= np.isfinite(value)
        better = live & (value < best_value)
        np.copyto(best_value, value, where=better)
        np.copyto(best_theta, theta, where=better[..., None])
        if iteration == config.iterations or not live.any():
            break
        if not live.all():
            grad[~live] = 0.0
        # the moments are updated in place, in the order of
        # m = beta1 * m + (1 - beta1) * grad and
        # step = rate * m_hat / (sqrt(v_hat) + eps)
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        v += (1.0 - _BETA2) * grad * grad
        step = m / (1.0 - _BETA1 ** (iteration + 1))
        # final 20% of iterations runs at a tenth of the step size
        step *= _LEARNING_RATE if iteration < switch else 0.1 * _LEARNING_RATE
        denominator = v / (1.0 - _BETA2 ** (iteration + 1))
        np.sqrt(denominator, out=denominator)
        denominator += _ADAM_EPS
        step /= denominator
        if live.all():
            theta = theta - step
        else:
            theta = np.where(live[..., None], theta - step, theta)
    restart = np.argmin(best_value, axis=0)                              # (K,)
    subjects = np.arange(theta.shape[1])
    if np.isinf(best_value[restart, subjects]).any():
        raise UsageError("no finite objective value reached from any restart")
    return best_theta[restart, subjects], restart, (~live).sum(axis=0)


def _solve_attention(objective: NudgeObjective) -> np.ndarray:
    """Each subject's optimal attention weight in [0, 1], (K,).

    p is linear in the weight a, so each penalized mean NLL is convex in
    a, and its minimizer is a bound whose derivative points outward
    (without a penalty) or the root of the derivative, which safeguarded
    Newton finds: a Newton step that leaves the bracket of the root is
    replaced by bisection.  Each subject stops when its own step is at
    most ``NEWTON_TOL``, so a stacked solve gives every subject the bits
    of solving it alone.
    """
    n_subjects = objective.n_subjects
    low, high = np.zeros(n_subjects), np.ones(n_subjects)
    attention = np.full(n_subjects, 0.5)
    live = np.ones(n_subjects, dtype=bool)
    if objective.l2_penalty == 0.0:
        # the penalty is infinite at the bounds; without it a bound is the
        # minimizer when the derivative there points out of [0, 1]
        for bound, outward in ((0.0, np.greater_equal), (1.0, np.less_equal)):
            at_bound = outward(objective.attention_derivatives(
                np.full(n_subjects, bound))[0], 0.0) & live
            attention[at_bound] = bound
            live &= ~at_bound
    for _ in range(_ATTENTION_MAX_STEPS):
        if not live.any():
            break
        first, second = objective.attention_derivatives(attention)
        low = np.where(live & (first < 0.0), attention, low)
        high = np.where(live & (first > 0.0), attention, high)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = attention - first / second
        step = np.where((step > low) & (step < high), step, 0.5 * (low + high))
        done = live & ((np.abs(step - attention) <= NEWTON_TOL) | (first == 0.0))
        attention = np.where(live & (first != 0.0), step, attention)
        live &= ~done
    return attention


def fit_nudge_batch(
    trial_sets,
    posterior: PopulationPosterior,
    treatment: Treatment,
    config: FitConfig = FitConfig(),
    seeds=None,
) -> list[NudgeFitResult]:
    """``fit_nudge`` for several subjects' training trials in one call.

    The posterior's whole ensemble is used.  Subject k's restarts are drawn
    from ``seeds[k]`` (default: ``config.seed`` for all).  All subjects'
    restarts run in one stacked Adam loop, or for the explanation treatment
    one stacked attention solve, whose results have ``restart_index`` 0;
    each result is bit-identical to fitting that subject alone.
    """
    trial_sets = list(trial_sets)
    seeds = [config.seed] * len(trial_sets) if seeds is None else list(seeds)
    if len(seeds) != len(trial_sets):
        raise UsageError(f"{len(seeds)} seeds for {len(trial_sets)} subjects")
    if not trial_sets:
        return []
    objective = NudgeObjective(trial_sets, posterior.ensemble, treatment,
                               l2_penalty=config.l2_penalty)
    if objective.treatment == Treatment.EXPLANATION:
        best_theta = _solve_attention(objective)[:, None]
        best_restart = abandoned = np.zeros(len(trial_sets), dtype=np.intp)
    else:
        best_theta, best_restart, abandoned = _minimize(objective, config, seeds)
    train_nll, grad, clipped = objective.fit_summary(best_theta[None])
    if objective.l2_penalty > 0.0:
        # converged means stationary for the objective the fit minimized
        grad = grad + objective._penalty(best_theta[None])[1]
    converged = (np.abs(grad[0]).max(axis=1) <= _GRADIENT_TOL) & ~clipped[0]
    return [
        NudgeFitResult(
            params=objective.params_from_theta(theta),
            train_nll=float(train_nll[0, k]),
            converged=bool(converged[k]),
            restart_index=int(best_restart[k]),
            theta=theta,
            abandoned_restarts=int(abandoned[k]),
        )
        for k, theta in enumerate(best_theta)
    ]


def fit_nudge(
    subject_trials: Trials,
    posterior: PopulationPosterior,
    treatment: Treatment,
    config: FitConfig = FitConfig(),
) -> NudgeFitResult:
    """Maximum-likelihood nudge parameters for one subject's training trials.

    Deterministic given (trials, posterior, config).  ``converged`` is
    False when the gradient has not leveled off or the likelihood pushed
    probabilities onto the clip boundary (degenerate data).
    """
    return fit_nudge_batch([subject_trials], posterior, treatment, config)[0]

