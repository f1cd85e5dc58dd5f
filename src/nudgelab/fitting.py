"""Per-subject maximum-likelihood estimation of nudge parameters.

The likelihood of a subject's final decisions is evaluated under the
frozen posterior ensemble; shift vectors are optimized through smooth
unconstrained reparameterizations (free signed scale, softplus
magnitudes, sigmoid attention weight) by multi-restart Adam.  Every
subject and restart of one call runs in a single stacked Adam loop; each
subject's result is the same bits as when it is fitted alone.  Gradients
are analytic, exact for the frozen-sample objective; inside the Adam loop
a large ensemble's response is interpolated from a per-trial table of the
exact response, whose nodes are evaluated when the fit first reads them,
and the gradient is exact for that interpolant.
"""

from __future__ import annotations

import math
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
    "fit_nudge_batch",
    "fit_nudge_deterministic_ablation",
]

# A fit counts as converged when the final gradient is this small (mean-NLL
# scale) and no trial probability sits on the clip boundary.
_GRADIENT_TOL = 1e-2

# Grid of logit shifts on which _EnsembleResponse tabulates a trial's ensemble
# response: step 0.05 over [-24, 24], wide enough for most shifts a delayed
# fit visits.  The cubic Hermite error is at most
# step^4 / 384 * max|d^4 sigmoid / dx^4| = 2.1e-9 in probability.
_GRID_LO = -24.0
_GRID_STEP = 0.05
_GRID_NODES = 961
# Smallest ensemble whose response is tabulated.  Below it a fit's exact
# evaluations cost less than the table's lookups (see CHANGES.md).
_TABULATE_MIN_MEMBERS = 128
# Member-by-trial temporaries hold at most max(one subject's trials x S,
# this many) elements.
_CHUNK_ELEMENTS = 4096


@dataclass(frozen=True)
class FitConfig:
    """Settings for the nudge-parameter MLE."""

    learning_rate: float = 0.05
    iterations: int = 500
    seed: int = 0
    restarts: int = 4
    clip_eps: float = 1e-6
    l2_penalty: float = 0.0

    def __post_init__(self):
        if min(self.learning_rate, self.iterations, self.clip_eps) <= 0:
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


class _EnsembleResponse:
    """Each trial's probability as a function of its scalar logit shift c:
    p_t(c) = sum_s m_ts sigmoid(base_ts + c) / count_t, and dp_t/dc.

    base_ts is member s's logit for trial t.  ``mask`` marks the members
    each trial averages over: all of them, or for the delayed treatment
    (``initial`` given) those whose own decision matches the trial's
    initial one, or all when none does; ``count`` counts them.  Logits are
    summed one feature at a time and every sum over members runs along one
    row, so a trial's values are the same bits whichever trials are
    stacked with it and however the rows are chunked.  Rows are processed
    ``chunk`` at a time.

    With at least ``_TABULATE_MIN_MEMBERS`` members, ``interpolated``
    evaluates the cubic Hermite interpolant of p_t and its slope between
    the nodes of a fixed grid of shifts; a shift off the grid is evaluated
    exactly, for that trial only.  The table (``node_p``, ``node_slope``:
    nodes x T) is a cache of the exact response: a cell is evaluated the
    first time a lookup reads it and marked in ``filled``, so a fit pays
    only for the nodes it visits.  ``ready`` marks the intervals (node k,
    trial t) whose two end cells are both filled, so a lookup that needs
    no new cell costs one read of it.  Every exact evaluation, cells
    included, reads the kept logits ``base`` (T x S).
    """

    def __init__(self, ensemble: np.ndarray, augmented: np.ndarray,
                 initial: np.ndarray | None, chunk: int):
        members = np.ascontiguousarray(ensemble.T)                      # (n+1, S)
        self.chunk = chunk
        n_trials, n_members = len(augmented), len(ensemble)
        self.columns = np.arange(n_trials)
        self.tabulated = n_members >= _TABULATE_MIN_MEMBERS
        self.mask = (None if initial is None
                     else np.empty((n_trials, n_members), dtype=bool))
        self.count = np.full(n_trials, float(n_members))
        self.base = np.empty((n_trials, n_members))                     # (T, S)
        if self.tabulated:
            self.node_p = np.full((_GRID_NODES, n_trials), np.nan)
            self.node_slope = np.full_like(self.node_p, np.nan)
            self.filled = np.zeros(self.node_p.shape, dtype=bool)
            self.ready = np.zeros((_GRID_NODES - 1, n_trials), dtype=bool)
        for start in range(0, n_trials, chunk):
            part = slice(start, start + chunk)
            x = augmented[part]
            base = np.multiply(x[:, :1], members[0], out=self.base[part])
            for j in range(1, x.shape[1]):
                base += x[:, j:j + 1] * members[j]
            if initial is not None:
                weight = self.mask[part]
                np.equal(base >= 0.0, initial[part, None] == 1, out=weight)
                weight[~weight.any(axis=1)] = True
                self.count[part] = weight.sum(axis=1)

    def exact(self, shift: np.ndarray):
        """(p, dp/dc) for shifts of shape (..., T)."""
        rows = np.broadcast_to(self.columns, shift.shape)
        p, slope = self._rows(rows.ravel(), shift.ravel())
        return p.reshape(shift.shape), slope.reshape(shift.shape)

    def _rows(self, rows, shift):
        """Exact (p, dp/dc) of trials ``rows`` at ``shift``, one per row."""
        p = np.empty(rows.size)
        slope = np.empty(rows.size)
        for start in range(0, rows.size, self.chunk):
            part = slice(start, start + self.chunk)
            take = rows[part]
            member = self.base[take]
            # -x = -shift - base: the same bits as -(base + shift)
            np.subtract(-shift[part, None], member, out=member)
            # sigmoid = 1 / (1 + e^-x), the formula of scipy's expit at a
            # quarter of its cost; e^-x overflows to inf where sigmoid is 0
            with np.errstate(over="ignore"):
                np.exp(member, out=member)
            member += 1.0
            np.reciprocal(member, out=member)
            dmember = np.subtract(1.0, member)
            dmember *= member
            if self.mask is not None:
                weight = self.mask[take]
                member *= weight
                dmember *= weight
            count = self.count[take]
            p[part] = member.sum(axis=1) / count
            slope[part] = dmember.sum(axis=1) / count
        return p, slope

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
        # interval (k, t) of ready and cell (k, t) of the table share the
        # flat index k * T + t
        at = node.astype(np.intp) * self.columns.size + self.columns
        ready = self.ready.take(at)
        if not all_on_grid:
            ready |= off
        if not ready.all():
            self._fill(at[~ready])
        after = at + self.columns.size
        # Hermite coefficients of the interval in u = (c - c_k) / step
        a0 = self.node_p.take(at)
        rise = self.node_p.take(after) - a0
        a1 = _GRID_STEP * self.node_slope.take(at)
        m1 = _GRID_STEP * self.node_slope.take(after)
        a2 = 3.0 * rise - 2.0 * a1 - m1
        a3 = a1 + m1 - 2.0 * rise
        cubic = a3 * u
        quadratic = (cubic + a2) * u
        p = (quadratic + a1) * u + a0
        dp_dc = (cubic * u + 2.0 * quadratic + a1) / _GRID_STEP
        if not all_on_grid:
            p[off], dp_dc[off] = self._rows(np.nonzero(off)[-1], shift[off])
        return p, dp_dc

    def _fill(self, at):
        """Evaluate the cells not yet filled at both ends of the intervals
        that start at (flat) cells ``at``, and mark them ready."""
        n_trials = self.columns.size
        cells = np.unique(np.concatenate((at, at + n_trials)))
        cells = cells[~self.filled.take(cells)]
        k, t = np.divmod(cells, n_trials)
        self.node_p.flat[cells], self.node_slope.flat[cells] = self._rows(
            t, _GRID_LO + _GRID_STEP * k)
        self.filled.flat[cells] = True
        # the intervals that end at a new cell and those that start at one
        intervals = np.concatenate((cells[k > 0] - n_trials,
                                    cells[k < _GRID_NODES - 1]))
        self.ready.flat[intervals] = (self.filled.take(intervals)
                                      & self.filled.take(intervals + n_trials))


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

    ``trial_sets`` is a list of K subjects' trial lists; their trials are
    stacked, and each subject's mean and gradient sum over its own trials
    only.  Everything that depends only on the trials and the frozen
    ensemble (conditioning masks, masked response means, response tables)
    is computed once, straight into the stacked arrays.

    ``theta`` is (R, K, P): R stacked parameter rows per subject, such as
    restarts.  P layouts:

    * immediate    — [scale, raw_magnitudes x n]
    * delayed      — [scale_affirm, raw_affirm x n, scale_contra, raw_contra x n]
    * explanation  — [raw_attention]

    Immediate and delayed assistance move trial t only through a scalar
    logit shift c_t, so its probability is a fixed 1-D function of c_t
    (``_EnsembleResponse``); ``value_and_gradient``, the objective the Adam
    loop steps, interpolates its table where it has one.  ``fit_summary``
    and ``probabilities`` are exact.
    """

    def __init__(self, trial_sets, ensemble: np.ndarray,
                 treatment: Treatment, clip_eps: float = 1e-6,
                 l2_penalty: float = 0.0):
        trial_sets = [list(subject) for subject in trial_sets]
        if not trial_sets:
            raise UsageError("at least one subject's trials are required")
        self.treatment = Treatment(treatment)
        if self.treatment == Treatment.INDEPENDENT:
            raise UsageError("independent treatment has no nudge parameters to fit")
        for subject in trial_sets:
            _check_subject(subject, self.treatment)
        trials = [t for subject in trial_sets for t in subject]
        self.n = trials[0].n_features
        if ensemble.shape[1] != self.n + 1:
            raise ConfigurationError(
                f"posterior has {ensemble.shape[1] - 1} features but the "
                f"trials have {self.n}"
            )
        self.clip_eps = float(clip_eps)
        self.l2_penalty = float(l2_penalty)

        sizes = [len(subject) for subject in trial_sets]
        self.n_subjects = len(sizes)
        self.subject_trials = np.asarray(sizes, dtype=float)             # (K,)
        self.subject = np.repeat(np.arange(self.n_subjects), sizes)      # (T,)
        self.trial_count = self.subject_trials[self.subject]             # (T,)
        self.by_subject = _GroupSum(self.subject, self.n_subjects)

        self.features = np.stack([t.features for t in trials])           # (T, n)
        n_trials = len(trials)
        self.final = np.asarray([t.final_decision for t in trials], dtype=float)

        if self.treatment == Treatment.EXPLANATION:
            mask = np.stack([t.explanation_mask for t in trials]).astype(float)
            ones = np.ones((n_trials, 1))
            focused = np.hstack([mask * self.features, ones])
            ignored = np.hstack([(1.0 - mask) * self.features, ones])
            # (T,) response means, one subject's product at a time
            cuts = np.cumsum(sizes)[:-1]
            self.mean_focused, self.mean_ignored = (
                np.concatenate([sigmoid(ensemble @ rows.T).mean(axis=0)
                                for rows in np.split(inputs, cuts)])
                for inputs in (focused, ignored))
            return

        rec = np.asarray([t.ai_recommendation for t in trials])
        initial = None
        if self.treatment == Treatment.IMMEDIATE:
            conf = np.asarray([t.ai_confidence for t in trials])
            self.direction = (2.0 * rec - 1.0) * conf                    # (T,)
            self.n_branches = 1                                          # direct
            branch = np.zeros(n_trials, dtype=np.intp)
        else:
            initial = np.asarray([t.initial_decision for t in trials])
            self.direction = 2.0 * rec - 1.0
            self.n_branches = 2                                          # affirm, contra
            branch = (rec != initial).astype(np.intp)
        # the shift-vector block (subject, branch) that moves each trial
        self.block = self.subject * self.n_branches + branch             # (T,)
        self.by_block = _GroupSum(self.block, self.n_subjects * self.n_branches)
        self.response = _EnsembleResponse(
            ensemble, np.hstack([self.features, np.ones((n_trials, 1))]), initial,
            chunk=max(max(sizes), _CHUNK_ELEMENTS // len(ensemble)))

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
            return NudgeParams.for_explanation(float(sigmoid(theta[0])))
        vectors = [SignedSharedSignVector(scale=float(block[0]),
                                          magnitudes=softplus(block[1:]))
                   for block in theta.reshape(self.n_branches, 1 + self.n)]
        if self.treatment == Treatment.IMMEDIATE:
            return NudgeParams.for_immediate(*vectors)
        return NudgeParams.for_delayed(*vectors)

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
        on_boundary = (probs <= self.clip_eps) | (probs >= 1.0 - self.clip_eps)
        clipped = self.by_subject(on_boundary.astype(float)) > 0.0
        return value, grad, clipped

    def _nll(self, theta, tabulated):
        """Mean NLL (R, K), its gradient (R, K, P) and the unclipped
        probabilities (R, T)."""
        probs, backward = self._forward(theta, tabulated)
        eps = self.clip_eps
        clipped = np.clip(probs, eps, 1.0 - eps)
        loglik = self.final * np.log(clipped) + (1.0 - self.final) * np.log1p(-clipped)
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
            attention = sigmoid(theta[..., 0])                           # (R, K)
            trial_attention = attention[:, self.subject]                 # (R, T)
            probs = (trial_attention * self.mean_focused
                     + (1.0 - trial_attention) * self.mean_ignored)

            def backward(dvalue_dp):
                d_attention = self.by_subject(
                    dvalue_dp * (self.mean_focused - self.mean_ignored))
                return (d_attention * attention * (1.0 - attention))[..., None]

            return probs, backward

        # shift c_t = direction_t * x_t . delta_(subject and branch of t)
        blocks = theta.reshape(n_rows, -1, 1 + self.n)                  # (R, K*B, 1+n)
        mags = softplus(blocks[..., 1:])
        deltas = blocks[..., :1] * mags                                  # (R, K*B, n)
        shift = self.direction * (deltas[:, self.block] * self.features).sum(axis=2)
        if tabulated and self.response.tabulated:
            probs, slope = self.response.interpolated(shift)
        else:
            probs, slope = self.response.exact(shift)

        def backward(dvalue_dp):
            dshift = dvalue_dp * slope * self.direction                  # (R, T)
            ddelta = self.by_block(dshift[..., None] * self.features)   # (R, K*B, n)
            return _shift_vector_gradient(blocks, mags, ddelta).reshape(theta.shape)

        return probs, backward

    def _penalty(self, theta):
        if self.treatment == Treatment.EXPLANATION:
            value = 0.5 * self.l2_penalty * theta[..., 0] ** 2
            return value, self.l2_penalty * theta
        blocks = theta.reshape(theta.shape[:2] + (self.n_branches, 1 + self.n))
        mags = softplus(blocks[..., 1:])
        deltas = blocks[..., :1] * mags
        value = 0.5 * self.l2_penalty * (deltas * deltas).reshape(
            theta.shape[:2] + (-1,)).sum(axis=-1)
        grad = _shift_vector_gradient(blocks, mags, self.l2_penalty * deltas)
        return value, grad.reshape(theta.shape)


def _check_subject(trials, treatment):
    if not trials:
        raise UsageError("at least one training trial is required")
    subjects = {t.subject_id for t in trials}
    if len(subjects) != 1:
        raise UsageError(f"trials span multiple subjects: {sorted(subjects)}")
    for t in trials:
        if t.treatment != treatment:
            raise UsageError(
                f"trial treatment {t.treatment.value!r} does not match "
                f"{treatment.value!r}"
            )


def _shift_vector_gradient(blocks, mags, ddelta):
    """Gradient in theta, given the gradient in each block's realized shift
    vector delta = scale * softplus(raw); blocks are [scale, raw] rows."""
    dscale = (ddelta * mags).sum(axis=-1, keepdims=True)
    dmags = blocks[..., :1] * ddelta * sigmoid(blocks[..., 1:])
    return np.concatenate([dscale, dmags], axis=-1)


def _minimize(objective: NudgeObjective, config: FitConfig, seeds):
    """Multi-restart Adam on every (restart, subject) row at once.

    Returns each subject's best iterate ever visited (so the result is never
    worse than any start) and its restart: the first restart to reach a
    subject's lowest value wins, and within a restart the first iteration.
    A row whose value goes non-finite is abandoned on its own.
    """
    theta = np.array([[objective.initial_theta(restart, seed) for seed in seeds]
                      for restart in range(config.restarts)])            # (R, K, P)
    optimizer = Adam(theta.shape, config.learning_rate)
    best_value = np.full(theta.shape[:2], np.inf)
    best_theta = theta.copy()
    live = np.ones(theta.shape[:2], dtype=bool)
    switch = int(0.8 * config.iterations)
    for iteration in range(config.iterations + 1):
        value, grad = objective.value_and_gradient(theta)
        live &= np.isfinite(value)
        better = live & (value < best_value)
        best_value[better] = value[better]
        best_theta[better] = theta[better]
        if iteration == config.iterations or not live.any():
            break
        # final 20% of iterations runs at a tenth of the step size
        optimizer.learning_rate = (
            config.learning_rate if iteration < switch
            else 0.1 * config.learning_rate
        )
        grad[~live] = 0.0
        theta = np.where(live[..., None], optimizer.step(theta, grad), theta)
    restart = np.argmin(best_value, axis=0)                              # (K,)
    subjects = np.arange(theta.shape[1])
    if np.isinf(best_value[restart, subjects]).any():
        raise UsageError("no finite objective value reached from any restart")
    return best_theta[restart, subjects], restart


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
    restarts run in one stacked Adam loop; each result is bit-identical to
    fitting that subject alone.
    """
    trial_sets = [list(trials) for trials in trial_sets]
    seeds = [config.seed] * len(trial_sets) if seeds is None else list(seeds)
    if len(seeds) != len(trial_sets):
        raise UsageError(f"{len(seeds)} seeds for {len(trial_sets)} subjects")
    if not trial_sets:
        return []
    objective = NudgeObjective(trial_sets, posterior.ensemble, treatment,
                               config.clip_eps, config.l2_penalty)
    best_theta, best_restart = _minimize(objective, config, seeds)
    train_nll, grad, clipped = objective.fit_summary(best_theta[None])
    converged = (np.abs(grad[0]).max(axis=1) <= _GRADIENT_TOL) & ~clipped[0]
    return [
        NudgeFitResult(
            params=objective.params_from_theta(theta),
            train_nll=float(train_nll[0, k]),
            converged=bool(converged[k]),
            restart_index=int(best_restart[k]),
            theta=theta,
        )
        for k, theta in enumerate(best_theta)
    ]


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
    return fit_nudge_batch([subject_trials], posterior, treatment, config)[0]


def fit_nudge_deterministic_ablation(
    subject_trials: list[BehaviorRecord],
    point_model: WeightVector,
    treatment: Treatment,
    config: FitConfig = FitConfig(),
) -> NudgeFitResult:
    """The same MLE with the ensemble collapsed onto one point model.

    Only defined for the delayed treatment (the ablation's setting); the
    fit is ``fit_nudge`` under the one-member posterior at ``point_model``.
    """
    if Treatment(treatment) != Treatment.DELAYED:
        raise UsageError("the deterministic ablation applies to the delayed treatment")
    return fit_nudge_batch([subject_trials], PopulationPosterior.point(point_model),
                           treatment, config)[0]
