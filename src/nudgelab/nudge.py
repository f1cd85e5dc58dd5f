"""Predicting assisted decisions as perturbations of the population posterior.

Each assistance form nudges the decision maker by shifting the feature
weights of every ensemble member (never the intercept):

* immediate assistance shifts by ``(2*y_m - 1) * confidence * delta``;
* a delayed recommendation first restricts the ensemble to the members
  whose own decision matches the observed initial decision (all of them
  when none does), then shifts by ``(2*y_m - 1)`` times the affirm or
  contradict vector depending on whether the recommendation matches;
* an explanation-only mask mixes the responses to the highlighted and
  non-highlighted feature subsets with attention weight ``delta_exp``
  (the intercept participates in both mixture terms).

A shift vector moves every member's logit on trial t by the same scalar
c_t = direction_t * x_t . delta, so each trial's probability is one
function of c_t: ``EnsembleResponse``.  At c = 0 it is the unassisted
(independent) probability, and an explanation trial's two response means
are its values at c = 0 on the masked features.  It is the package's only
probability code: simulation, the nudge fit and scoring all evaluate it.
``predict_immediate``, ``predict_delayed`` and ``predict_explanation``
evaluate it for a batch of trials (one subject's, or many subjects'
stacked) at realized shift vectors; ``decision_probability`` scores the
``Trials`` of K subjects, each at its own parameters.

Shift vectors share one sign across coordinates: they are stored as a
signed scalar times nonnegative magnitudes, so trust (+) versus distrust
of the AI is a single degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PopulationPosterior, _frozen_array
from .errors import ConfigurationError, InputError, UsageError
from .records import Treatment, Trials

__all__ = [
    "EnsembleResponse",
    "SignedSharedSignVector",
    "NudgeParams",
    "explanation_means",
    "predict_immediate",
    "predict_delayed",
    "predict_explanation",
    "decision_probability",
    "PROBABILITY_EPS",
]

PROBABILITY_EPS = 1e-6

# Member-by-trial temporaries hold at most max(min_chunk trials x S, this
# many) elements.
_CHUNK_ELEMENTS = 4096
# A one-off evaluation builds its EnsembleResponse this many member-by-trial
# elements at a time (128 KB a temporary), so it keeps no T x S array
# beyond one block.
_BLOCK_ELEMENTS = 1 << 14


class EnsembleResponse:
    """Each trial's probability as a function of its scalar logit shift c:
    p_t(c) = sum_s m_ts sigmoid(base_ts + c) / count_t, and dp_t/dc.

    base_ts is member s's logit for trial t (``features`` is T x n; the
    intercept is the ensemble's last column).  ``mask`` marks the members
    each trial averages over: all of them, or for the delayed treatment
    (``initial`` given) those whose own decision matches the trial's
    initial one, or all when none does; ``count`` counts them.  Logits are
    summed one feature at a time and every sum over members runs along one
    row, so a trial's values are the same bits whichever trials are
    stacked with it and however the rows are chunked.  Rows are processed
    at least ``min_chunk`` at a time.  Every evaluation reads the kept
    logits ``base`` (T x S).
    """

    def __init__(self, ensemble: np.ndarray, features: np.ndarray,
                 initial: np.ndarray | None = None, min_chunk: int = 1):
        members = np.ascontiguousarray(ensemble.T)                      # (n+1, S)
        n_trials, n_members = len(features), len(ensemble)
        self.chunk = max(min_chunk, _CHUNK_ELEMENTS // n_members)
        self.columns = np.arange(n_trials)
        self.mask = (None if initial is None
                     else np.empty((n_trials, n_members), dtype=bool))
        self.count = np.full(n_trials, float(n_members))
        self.base = np.empty((n_trials, n_members))                     # (T, S)
        for start in range(0, n_trials, self.chunk):
            part = slice(start, start + self.chunk)
            x = features[part]
            base = np.multiply(x[:, :1], members[0], out=self.base[part])
            for j in range(1, x.shape[1]):
                base += x[:, j:j + 1] * members[j]
            base += members[-1]
            if initial is not None:
                weight = self.mask[part]
                np.equal(base >= 0.0, initial[part, None] == 1, out=weight)
                weight[~weight.any(axis=1)] = True
                self.count[part] = weight.sum(axis=1)

    def exact(self, shift: np.ndarray):
        """(p, dp/dc) for shifts of shape (..., T)."""
        rows = np.broadcast_to(self.columns, shift.shape)
        p, slope, _ = self._rows(rows.ravel(), shift.ravel())
        return p.reshape(shift.shape), slope.reshape(shift.shape)

    def _rows(self, rows, shift, derivatives=1):
        """Exact (p, dp/dc, d2p/dc2) of trials ``rows`` at ``shift``, one per
        row; the derivatives past the first ``derivatives`` (0 to 2) are
        None."""
        p = np.empty(rows.size)
        slope = np.empty(rows.size) if derivatives >= 1 else None
        curv = np.empty(rows.size) if derivatives >= 2 else None
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
            weight = None if self.mask is None else self.mask[take]
            count = self.count[take]
            if slope is not None:
                dmember = np.subtract(1.0, member)
                dmember *= member
                if weight is not None:
                    dmember *= weight
                slope[part] = dmember.sum(axis=1) / count
            if weight is not None:
                member *= weight
            p[part] = member.sum(axis=1) / count
            if curv is not None:
                # sigmoid'' = sigmoid (1 - sigmoid) (1 - 2 sigmoid), zero
                # where the masked dmember is
                member *= -2.0
                member += 1.0
                member *= dmember
                curv[part] = member.sum(axis=1) / count
        return p, slope, curv


def _response_at(ensemble, features, shift, initial=None) -> np.ndarray:
    """The probabilities (T,) of ``EnsembleResponse(ensemble, features,
    initial)`` at ``shift``, without their slopes, built and evaluated one
    block of trials at a time."""
    block = max(1, _BLOCK_ELEMENTS // len(ensemble))
    p = np.empty(len(features))
    for start in range(0, len(features), block):
        part = slice(start, start + block)
        response = EnsembleResponse(ensemble, features[part],
                                    None if initial is None else initial[part],
                                    min_chunk=block)
        p[part] = response._rows(response.columns, shift[part], derivatives=0)[0]
    return p


def _unassisted(ensemble, features) -> np.ndarray:
    """Each trial's unassisted probability (T,): the response at c = 0."""
    return _response_at(ensemble, features, np.zeros(len(features)))


def logit_shift(direction, deltas, features):
    """Each trial's logit shift c = direction * x . delta: deltas (..., T, n)
    or (n,), features (T, n)."""
    return direction * (deltas * features).sum(axis=-1)


def explanation_means(ensemble: np.ndarray, features: np.ndarray,
                      masks: np.ndarray):
    """Each trial's mean member response to its highlighted features and to
    the others, the intercept kept in both: two (T,) arrays, the ensemble
    response at c = 0 on the masked features."""
    return (_unassisted(ensemble, masks * features),
            _unassisted(ensemble, (1.0 - masks) * features))


def attention_mixture(attention, focused, ignored):
    """Explanation probabilities at attention weights ``attention``: the
    weighted mixture of the two response means."""
    return attention * focused + (1.0 - attention) * ignored


@dataclass(frozen=True)
class SignedSharedSignVector:
    """Weight shift delta = scale * magnitudes with one shared sign.

    ``scale`` carries the sign (trust when positive, distrust when
    negative) and ``magnitudes`` are nonnegative, so any two realized
    components satisfy delta_i * delta_j >= 0 by construction.
    """

    scale: float
    magnitudes: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if mags.ndim != 1 or np.any(mags < 0.0) or not np.all(np.isfinite(mags)):
            raise ConfigurationError("magnitudes must be finite and nonnegative")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.scale * np.append(mags, 1.0))):
                raise ConfigurationError("scale and the realized vector must be finite")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "magnitudes", _frozen_array(mags))

    @classmethod
    def zero(cls, n_features: int) -> "SignedSharedSignVector":
        return cls(scale=0.0, magnitudes=np.zeros(n_features))

    @property
    def realized(self) -> np.ndarray:
        """The actual shift vector applied to the feature weights."""
        return self.scale * self.magnitudes

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.realized))

    @property
    def sign(self) -> int:
        """+1 when scale >= 0, else -1 (zero-magnitude components allowed)."""
        return 1 if self.scale >= 0 else -1


@dataclass(frozen=True)
class NudgeParams:
    """Per-subject nudge parameters; only the treatment's fields are present."""

    delta_direct: SignedSharedSignVector | None = None
    delta_affirm: SignedSharedSignVector | None = None
    delta_contra: SignedSharedSignVector | None = None
    delta_exp: float | None = None

    def __post_init__(self):
        immediate = self.delta_direct is not None
        delayed = (self.delta_affirm is not None) or (self.delta_contra is not None)
        explanation = self.delta_exp is not None
        if sum((immediate, delayed, explanation)) != 1:
            raise ConfigurationError(
                "exactly one treatment's parameters must be present"
            )
        if delayed and (self.delta_affirm is None or self.delta_contra is None):
            raise ConfigurationError(
                "delayed parameters require both delta_affirm and delta_contra"
            )
        if explanation and not 0.0 <= self.delta_exp <= 1.0:
            raise ConfigurationError("delta_exp must lie in [0, 1]")

    @property
    def treatment(self) -> Treatment:
        if self.delta_direct is not None:
            return Treatment.IMMEDIATE
        if self.delta_affirm is not None:
            return Treatment.DELAYED
        return Treatment.EXPLANATION

    @classmethod
    def for_immediate(cls, delta: SignedSharedSignVector) -> "NudgeParams":
        return cls(delta_direct=delta)

    @classmethod
    def for_delayed(cls, affirm: SignedSharedSignVector,
                    contra: SignedSharedSignVector) -> "NudgeParams":
        return cls(delta_affirm=affirm, delta_contra=contra)

    @classmethod
    def for_explanation(cls, delta_exp: float) -> "NudgeParams":
        return cls(delta_exp=delta_exp)


def _features(posterior: PopulationPosterior, features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or len(features) == 0:
        raise UsageError("features must be a nonempty (trials, n) array")
    if features.shape[1] != posterior.n_features:
        raise ConfigurationError(
            f"trials have {features.shape[1]} features but the posterior "
            f"expects {posterior.n_features}"
        )
    return features


def _binary(values, name: str) -> np.ndarray:
    values = np.asarray(values)
    if not np.isin(values, (0, 1)).all():
        raise InputError(f"{name} must be 0 or 1")
    return values


def _shift_vector(delta, features: np.ndarray) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape not in ((features.shape[1],), features.shape):
        raise ConfigurationError("delta dimensionality does not match the task")
    return delta


def predict_immediate(posterior: PopulationPosterior, features, recommendation,
                      confidence, delta) -> np.ndarray:
    """Final-decision probabilities (T,) under upfront recommendations.

    ``features`` is (T, n), ``recommendation`` and ``confidence`` are (T,),
    and ``delta`` is the realized shift vector: (n,) for one subject, or
    (T, n) with each trial's own subject's.  Every ensemble member's
    feature weights are shifted by ``(2*y_m - 1) * confidence * delta``
    before the logistic response is averaged.
    """
    features = _features(posterior, features)
    delta = _shift_vector(delta, features)
    recommendation = _binary(recommendation, "recommendation")
    confidence = np.asarray(confidence, dtype=float)
    if not np.all((confidence >= 0.5) & (confidence <= 1.0)):
        raise InputError("confidence must lie in [0.5, 1]")
    shift = logit_shift((2.0 * recommendation - 1.0) * confidence, delta, features)
    return _response_at(posterior.ensemble, features, shift)


def predict_delayed(posterior: PopulationPosterior, features, recommendation,
                    initial, affirm, contra) -> np.ndarray:
    """Final-decision probabilities (T,) under delayed recommendations.

    Each trial averages over the members whose own decision matches its
    ``initial`` decision; the realized ``affirm`` vector applies when the
    recommendation matches that decision, ``contra`` otherwise (each (n,)
    or (T, n), as in ``predict_immediate``).
    """
    features = _features(posterior, features)
    affirm, contra = (_shift_vector(v, features) for v in (affirm, contra))
    recommendation = _binary(recommendation, "recommendation")
    initial = _binary(initial, "initial_decision")
    branch = np.where((recommendation == initial)[:, None], affirm, contra)
    shift = logit_shift(2.0 * recommendation - 1.0, branch, features)
    return _response_at(posterior.ensemble, features, shift, initial)


def predict_explanation(posterior: PopulationPosterior, features, masks,
                        attention) -> np.ndarray:
    """Final-decision probabilities (T,) under explanation-only masks.

    Mixes each trial's mean response to its highlighted features (``masks``,
    T x n of 0/1) with its mean response to the others, weighting the
    highlighted part by ``attention``: a scalar, or one weight per trial.
    Masked-out features contribute zero to the linear score; the intercept
    is kept in both terms.
    """
    features = _features(posterior, features)
    masks = _binary(masks, "mask")
    if masks.shape != features.shape:
        raise ConfigurationError("mask length does not match the task")
    attention = np.asarray(attention, dtype=float)
    if not np.all((attention >= 0.0) & (attention <= 1.0)):
        raise InputError("delta_exp must lie in [0, 1]")
    means = explanation_means(posterior.ensemble, features, masks.astype(float))
    return attention_mixture(attention, *means)


def decision_probability(trial_sets, posterior: PopulationPosterior, params,
                         clip_eps: float = PROBABILITY_EPS) -> np.ndarray:
    """Probability that each trial's final decision is 1, clipped to
    [clip_eps, 1 - clip_eps]: a (T,) array over K subjects' trials.

    ``trial_sets`` is a list of K subjects' ``Trials``, all of one
    treatment, and ``params`` their K nudge parameters; the independent
    treatment takes None for each and is the ensemble response at c = 0.
    The trials are scored in one call of the treatment's predictor, in
    order.  The clip keeps log likelihoods finite for degenerate ensembles.
    """
    trial_sets = list(trial_sets)
    params = list(params)
    if len(params) != len(trial_sets):
        raise UsageError(f"{len(params)} parameter sets for {len(trial_sets)} subjects")
    if not sum(len(trials) for trials in trial_sets):
        raise UsageError("at least one trial is required")
    trials = Trials.concat(trial_sets)
    treatment = trials.treatment[0]
    if (trials.treatment != treatment).any():
        raise UsageError("score one treatment at a time")
    wanted = None if treatment == Treatment.INDEPENDENT else treatment
    if any((None if p is None else p.treatment) != wanted for p in params):
        raise UsageError(f"trial treatment {treatment.value!r} does not match "
                         f"the parameters provided")
    sizes = [len(trials) for trials in trial_sets]
    features = _features(posterior, trials.features)

    def per_trial(values):
        return np.repeat(np.asarray(values), sizes, axis=0)

    def vectors(field):
        return per_trial([getattr(p, field).realized for p in params])

    if treatment == Treatment.INDEPENDENT:
        probability = _unassisted(posterior.ensemble, features)
    elif treatment == Treatment.EXPLANATION:
        probability = predict_explanation(
            posterior, features, trials.explanation_mask,
            per_trial([p.delta_exp for p in params]))
    elif treatment == Treatment.IMMEDIATE:
        probability = predict_immediate(
            posterior, features, trials.ai_recommendation, trials.ai_confidence,
            vectors("delta_direct"))
    else:
        probability = predict_delayed(
            posterior, features, trials.ai_recommendation, trials.initial_decision,
            vectors("delta_affirm"), vectors("delta_contra"))
    return np.clip(probability, clip_eps, 1.0 - clip_eps)
