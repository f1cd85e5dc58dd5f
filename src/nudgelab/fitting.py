"""Per-subject maximum-likelihood estimation of nudge parameters.

The likelihood of a subject's final decisions is evaluated under the
frozen posterior ensemble; shift vectors are optimized through smooth
unconstrained reparameterizations (free signed scale, softplus
magnitudes, sigmoid attention weight) by multi-restart Adam.  Gradients
are analytic, exact for the frozen-sample objective; inside the Adam loop
a large ensemble's response is interpolated from a per-trial table, and
the gradient is exact for that interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import Adam, derive_seed, sigmoid, softplus, softplus_inverse
from .core import PopulationPosterior, WeightVector
from .errors import ConfigurationError, UsageError
from .nudge import NudgeParams, SignedSharedSignVector
from .records import BehaviorRecord, Treatment

__all__ = [
    "FitConfig",
    "NudgeFitResult",
    "NudgeObjective",
    "fit_nudge",
    "fit_nudge_deterministic_ablation",
]

# A fit counts as converged when the final gradient is this small (mean-NLL
# scale) and no trial probability sits on the clip boundary.
_GRADIENT_TOL = 1e-2

# Grid of logit shifts on which _ResponseTable tabulates a trial's ensemble
# response: step 0.05 over [-12, 12].  The cubic Hermite error is at most
# step^4 / 384 * max|d^4 sigmoid / dx^4| = 2.1e-9 in probability.
_GRID_LO = -12.0
_GRID_STEP = 0.05
_GRID_NODES = 481
# Smallest ensemble whose response is tabulated.  Below it a fit's exact
# evaluations cost less than building the table (see CHANGES.md).
_TABULATE_MIN_MEMBERS = 128


@dataclass(frozen=True)
class FitConfig:
    """Settings for the nudge-parameter MLE."""

    learning_rate: float = 0.05
    iterations: int = 500
    seed: int = 0
    ensemble_size: int = 1000
    restarts: int = 4
    clip_eps: float = 1e-6
    l2_penalty: float = 0.0

    def __post_init__(self):
        if min(self.learning_rate, self.iterations, self.ensemble_size,
               self.clip_eps) <= 0:
            raise ConfigurationError("fit settings must be positive")
        if self.restarts < 1:
            raise ConfigurationError("restarts must be >= 1")
        if self.l2_penalty < 0:
            raise ConfigurationError("l2_penalty must be nonnegative")


@dataclass(frozen=True)
class NudgeFitResult:
    params: NudgeParams
    train_nll: float
    converged: bool
    restart_index: int
    theta: np.ndarray


def _ensemble_response(base, weight, shift):
    """Each trial's p_t = sum_s w_st sigmoid(base_st + c_t) and dp_t/dc_t."""
    member = sigmoid(base + shift)
    weighted = weight * member
    p = weighted.sum(axis=0)
    weighted *= np.subtract(1.0, member, out=member)
    return p, weighted.sum(axis=0)


def _tabulate(base, weight):
    """``_ensemble_response`` at every node of the grid of shifts.

    sigmoid(x) = 1 / (1 + e^-x), and stepping the shift by one node
    multiplies e^-x by a constant, so no node needs an exp.  Clipping base
    keeps e^-x finite and moves no probability by more than 1e-290.  One
    node at a time keeps the temporaries at four copies of base.
    """
    p = np.empty((_GRID_NODES, base.shape[1]))
    slope = np.empty_like(p)
    decay = np.clip(base, -688.0, 688.0)
    np.exp(-_GRID_LO - decay, out=decay)                         # e^-x at c_0
    odds = np.empty_like(base)
    denom = np.empty_like(base)
    term = np.empty_like(base)
    for k in range(_GRID_NODES):
        np.multiply(decay, np.exp(-_GRID_STEP * k), out=odds)    # e^-x
        np.add(odds, 1.0, out=denom)                              # 1 / sigmoid
        np.divide(weight, denom, out=term)                        # w sigmoid
        p[k] = term.sum(axis=0)
        term /= denom
        term *= odds                                              # w sigmoid (1 - sigmoid)
        slope[k] = term.sum(axis=0)
    return p, slope


class _ResponseTable:
    """``_ensemble_response`` as a piecewise cubic in each trial's shift.

    p_t and its slope are tabulated exactly at the nodes of a fixed grid of
    shifts; between nodes, p_t is their cubic Hermite interpolant.  A shift
    off the grid is evaluated exactly, for that trial only.
    """

    def __init__(self, base: np.ndarray, weight: np.ndarray):
        self.base = base
        self.weight = weight
        n_trials = base.shape[1]
        p, slope = _tabulate(base, weight)
        # Hermite coefficients of each interval in u = (c - c_k) / step
        rise = p[1:] - p[:-1]
        m0 = _GRID_STEP * slope[:-1]
        m1 = _GRID_STEP * slope[1:]
        coef = np.empty((_GRID_NODES - 1, n_trials, 4))
        coef[..., 0] = p[:-1]
        coef[..., 1] = m0
        coef[..., 2] = 3.0 * rise - 2.0 * m0 - m1
        coef[..., 3] = m0 + m1 - 2.0 * rise
        self.coef = coef.reshape(-1, 4)
        self.columns = np.arange(n_trials)
        self.n_trials = n_trials

    def __call__(self, shift: np.ndarray):
        """(p, dp/dc) at each trial's shift."""
        u = (shift - _GRID_LO) / _GRID_STEP
        node = np.floor(u)
        on_grid = (node >= 0.0) & (node <= _GRID_NODES - 2)
        all_on_grid = on_grid.all()
        if not all_on_grid:
            off = ~on_grid
            node[off] = 0.0
            u[off] = 0.0
        u -= node
        a0, a1, a2, a3 = self.coef[
            node.astype(np.intp) * self.n_trials + self.columns].T
        cubic = a3 * u
        quadratic = (cubic + a2) * u
        p = (quadratic + a1) * u + a0
        dp_dc = (cubic * u + 2.0 * quadratic + a1) / _GRID_STEP
        if not all_on_grid:
            p[off], dp_dc[off] = _ensemble_response(
                self.base[:, off], self.weight[:, off], shift[off])
        return p, dp_dc


class NudgeObjective:
    """Mean negative log-likelihood of one subject's trials, with gradient.

    Precomputes everything that depends only on the trials and the frozen
    ensemble (base logits, per-trial conditioning weights, masked response
    means).  ``theta`` layouts:

    * immediate    — [scale, raw_magnitudes x n]
    * delayed      — [scale_affirm, raw_affirm x n, scale_contra, raw_contra x n]
    * explanation  — [raw_attention]

    Immediate and delayed assistance move trial t only through a scalar
    logit shift c_t, so its probability is a fixed 1-D function of c_t.
    With at least ``_TABULATE_MIN_MEMBERS`` ensemble members that function
    is tabulated once (``_ResponseTable``) and ``value_and_gradient(...,
    tabulated=True)`` interpolates it; a shift off the grid is evaluated
    exactly, for that trial only.  Everything else is exact.
    """

    def __init__(self, trials: list[BehaviorRecord], ensemble: np.ndarray,
                 treatment: Treatment, clip_eps: float = 1e-6,
                 l2_penalty: float = 0.0):
        if not trials:
            raise UsageError("at least one training trial is required")
        self.treatment = Treatment(treatment)
        if self.treatment == Treatment.INDEPENDENT:
            raise UsageError("independent treatment has no nudge parameters to fit")
        subjects = {t.subject_id for t in trials}
        if len(subjects) != 1:
            raise UsageError(f"trials span multiple subjects: {sorted(subjects)}")
        for t in trials:
            if t.treatment != self.treatment:
                raise UsageError(
                    f"trial treatment {t.treatment.value!r} does not match "
                    f"{self.treatment.value!r}"
                )
        self.n = trials[0].n_features
        if ensemble.shape[1] != self.n + 1:
            raise ConfigurationError(
                f"posterior has {ensemble.shape[1] - 1} features but the "
                f"trials have {self.n}"
            )
        self.clip_eps = float(clip_eps)
        self.l2_penalty = float(l2_penalty)

        self.features = np.stack([t.features for t in trials])           # (T, n)
        n_trials = len(trials)
        ones = np.ones((n_trials, 1))
        self.final = np.asarray([t.final_decision for t in trials], dtype=float)

        if self.treatment == Treatment.EXPLANATION:
            mask = np.stack([t.explanation_mask for t in trials]).astype(float)
            focused = np.hstack([mask * self.features, ones])
            ignored = np.hstack([(1.0 - mask) * self.features, ones])
            self.mean_focused = sigmoid(ensemble @ focused.T).mean(axis=0)   # (T,)
            self.mean_ignored = sigmoid(ensemble @ ignored.T).mean(axis=0)   # (T,)
            return

        base = ensemble @ np.hstack([self.features, ones]).T              # (S, T)
        rec = np.asarray([t.ai_recommendation for t in trials])
        if self.treatment == Treatment.IMMEDIATE:
            conf = np.asarray([t.ai_confidence for t in trials])
            self.direction = (2.0 * rec - 1.0) * conf                    # (T,)
            self.n_branches = 1                                          # direct
            branch = np.zeros(n_trials, dtype=np.intp)
            # uniform member weights 1/S, broadcast over members
            self.member_weight = np.full((1, n_trials), 1.0 / len(ensemble))
        else:
            initial = np.asarray([t.initial_decision for t in trials])
            self.direction = 2.0 * rec - 1.0
            self.n_branches = 2                                          # affirm, contra
            branch = (rec != initial).astype(np.intp)
            consistent = (sigmoid(base) >= 0.5) == initial[None, :].astype(bool)
            counts = consistent.sum(axis=0)
            fallback = counts == 0
            if np.any(fallback):
                consistent[:, fallback] = True
                counts = consistent.sum(axis=0)
            self.member_weight = consistent / counts                     # (S, T)
        # features in the column block of each trial's branch, zero elsewhere
        in_branch = branch[:, None] == np.arange(self.n_branches)
        self.branch_features = (in_branch[:, :, None] * self.features[:, None, :]
                                ).reshape(n_trials, -1)                # (T, B*n)
        self.base = base
        self.table = (_ResponseTable(base, self.member_weight)
                      if len(ensemble) >= _TABULATE_MIN_MEMBERS else None)

    @property
    def n_params(self) -> int:
        if self.treatment == Treatment.EXPLANATION:
            return 1
        return self.n_branches * (1 + self.n)

    # -- parameterization -------------------------------------------------

    def params_from_theta(self, theta: np.ndarray) -> NudgeParams:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ConfigurationError(f"theta must have shape ({self.n_params},)")
        if self.treatment == Treatment.EXPLANATION:
            return NudgeParams.for_explanation(float(sigmoid(theta[0])))
        vectors = [SignedSharedSignVector(scale=float(block[0]),
                                          magnitudes=softplus(block[1:]))
                   for block in self._blocks(theta)]
        if self.treatment == Treatment.IMMEDIATE:
            return NudgeParams.for_immediate(*vectors)
        return NudgeParams.for_delayed(*vectors)

    def _blocks(self, theta: np.ndarray) -> np.ndarray:
        """theta as one [scale, raw magnitudes] row per branch."""
        return theta.reshape(self.n_branches, 1 + self.n)

    def initial_theta(self, restart: int, seed: int) -> np.ndarray:
        """Restart 0 starts near zero nudge; restart 1 flips the scale sign;
        later restarts are random."""
        if self.treatment == Treatment.EXPLANATION:
            fixed = [0.0, 1.5, -1.5]
            if restart < len(fixed):
                return np.array([fixed[restart]])
            rng = np.random.default_rng(derive_seed(seed, "init", restart))
            return rng.normal(0.0, 1.5, size=1)
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

    # -- objective ---------------------------------------------------------

    def probabilities(self, theta: np.ndarray) -> np.ndarray:
        """Unclipped per-trial probabilities of a final decision of 1."""
        return self._forward(np.asarray(theta, dtype=float), tabulated=False)[0]

    def value_and_gradient(
        self, theta: np.ndarray, include_penalty: bool = True,
        tabulated: bool = False,
    ) -> tuple[float, np.ndarray]:
        """Mean NLL of the final decisions and its gradient in theta.

        Exact by default.  ``tabulated`` evaluates the ensemble response
        from the table where the objective has one; the gradient is then
        exact for the interpolated response.
        """
        theta = np.asarray(theta, dtype=float)
        probs, backward = self._forward(theta, tabulated)
        eps = self.clip_eps
        clipped = np.clip(probs, eps, 1.0 - eps)
        n_trials = probs.size
        value = -float(np.mean(
            self.final * np.log(clipped) + (1.0 - self.final) * np.log1p(-clipped)
        ))
        interior = (probs > eps) & (probs < 1.0 - eps)
        dvalue_dp = np.where(
            interior,
            (clipped - self.final) / (clipped * (1.0 - clipped)) / n_trials,
            0.0,
        )
        grad = backward(dvalue_dp)
        if include_penalty and self.l2_penalty > 0.0:
            value_pen, grad_pen = self._penalty(theta)
            value += value_pen
            grad = grad + grad_pen
        return value, grad

    def clipping_active(self, theta: np.ndarray) -> bool:
        probs = self.probabilities(theta)
        return bool(np.any((probs <= self.clip_eps)
                           | (probs >= 1.0 - self.clip_eps)))

    def _forward(self, theta, tabulated):
        if self.treatment == Treatment.EXPLANATION:
            attention = float(sigmoid(theta[0]))
            probs = (attention * self.mean_focused
                     + (1.0 - attention) * self.mean_ignored)

            def backward(dvalue_dp):
                d_attention = float(
                    np.sum(dvalue_dp * (self.mean_focused - self.mean_ignored))
                )
                return np.array([d_attention * attention * (1.0 - attention)])

            return probs, backward

        # shift c_t = direction_t * x_t . delta_(branch of t)
        blocks = self._blocks(theta)
        mags = softplus(blocks[:, 1:])
        deltas = blocks[:, :1] * mags                                    # (B, n)
        shift = self.direction * (self.branch_features @ deltas.ravel())  # (T,)
        if tabulated and self.table is not None:
            probs, slope = self.table(shift)
        else:
            probs, slope = _ensemble_response(self.base, self.member_weight, shift)

        def backward(dvalue_dp):
            dshift = dvalue_dp * slope * self.direction                  # (T,)
            ddelta = (dshift @ self.branch_features).reshape(mags.shape)  # (B, n)
            return _shift_vector_gradient(blocks, mags, ddelta)

        return probs, backward

    def _penalty(self, theta):
        if self.treatment == Treatment.EXPLANATION:
            value = 0.5 * self.l2_penalty * float(theta[0] ** 2)
            return value, self.l2_penalty * theta
        blocks = self._blocks(theta)
        mags = softplus(blocks[:, 1:])
        deltas = blocks[:, :1] * mags
        value = 0.5 * self.l2_penalty * float(np.sum(deltas * deltas))
        return value, _shift_vector_gradient(blocks, mags, self.l2_penalty * deltas)


def _shift_vector_gradient(blocks, mags, ddelta):
    """Gradient in theta, given the gradient in each branch's realized shift
    vector delta = scale * softplus(raw)."""
    dscale = (ddelta * mags).sum(axis=1, keepdims=True)
    dmags = blocks[:, :1] * ddelta * sigmoid(blocks[:, 1:])
    return np.concatenate([dscale, dmags], axis=1).ravel()


def _minimize(objective: NudgeObjective, config: FitConfig):
    """Multi-restart Adam; returns (value, theta, restart_index) of the best
    iterate ever visited (so the result is never worse than any start)."""
    best_value, best_theta, best_restart = np.inf, None, 0
    switch = int(0.8 * config.iterations)
    for restart in range(config.restarts):
        theta = objective.initial_theta(restart, config.seed)
        optimizer = Adam(theta.size, config.learning_rate)
        for iteration in range(config.iterations + 1):
            value, grad = objective.value_and_gradient(theta, tabulated=True)
            if not np.isfinite(value):
                break
            if value < best_value:
                best_value, best_theta, best_restart = value, theta.copy(), restart
            if iteration == config.iterations:
                break
            # final 20% of iterations runs at a tenth of the step size
            optimizer.learning_rate = (
                config.learning_rate if iteration < switch
                else 0.1 * config.learning_rate
            )
            theta = optimizer.step(theta, grad)
    if best_theta is None:
        raise UsageError("no finite objective value reached from any restart")
    return best_value, best_theta, best_restart


def _fit(subject_trials, ensemble, treatment, config) -> NudgeFitResult:
    objective = NudgeObjective(
        subject_trials, ensemble, treatment, config.clip_eps, config.l2_penalty
    )
    _, best_theta, best_restart = _minimize(objective, config)
    train_nll, grad = objective.value_and_gradient(best_theta, include_penalty=False)
    converged = (float(np.max(np.abs(grad))) <= _GRADIENT_TOL
                 and not objective.clipping_active(best_theta))
    return NudgeFitResult(
        params=objective.params_from_theta(best_theta),
        train_nll=float(train_nll),
        converged=bool(converged),
        restart_index=int(best_restart),
        theta=best_theta,
    )


def fit_nudge(
    subject_trials: list[BehaviorRecord],
    posterior: PopulationPosterior,
    treatment: Treatment,
    config: FitConfig = FitConfig(),
) -> NudgeFitResult:
    """Maximum-likelihood nudge parameters for one subject's training trials.

    Deterministic given (trials, posterior, config).  ``converged`` is
    False when the gradient has not leveled off or the likelihood pushed
    probabilities onto the clip boundary (degenerate data).
    """
    return _fit(subject_trials, posterior.ensemble[: config.ensemble_size],
                treatment, config)


def fit_nudge_deterministic_ablation(
    subject_trials: list[BehaviorRecord],
    point_model: WeightVector,
    treatment: Treatment,
    config: FitConfig = FitConfig(),
) -> NudgeFitResult:
    """The same MLE with the ensemble collapsed onto one point model.

    Only defined for the delayed treatment (the ablation's setting); all
    expectations reduce to single evaluations at ``point_model``.
    """
    if Treatment(treatment) != Treatment.DELAYED:
        raise UsageError("the deterministic ablation applies to the delayed treatment")
    return _fit(subject_trials, point_model.augmented()[None, :], treatment, config)
