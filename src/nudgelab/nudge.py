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
probability code, and ``TreatmentLayout`` is the only code that maps a
treatment's payload onto it: simulation, the nudge fit and scoring all
read K subjects' trials through both.  ``decision_probability`` scores the
``Trials`` of K subjects of one treatment, each at its own parameters.

Shift vectors share one sign across coordinates: they are stored as a
signed scalar times nonnegative magnitudes, so trust (+) versus distrust
of the AI is a single degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PopulationPosterior, _frozen_array
from .errors import ConfigurationError, UsageError
from .records import Treatment, Trials

__all__ = [
    "EnsembleResponse",
    "SignedSharedSignVector",
    "NudgeParams",
    "explanation_means",
    "TreatmentLayout",
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
            # sigmoid = 1 / (1 + e^-x) in place, the formula of
            # _util.sigmoid; e^-x overflows to inf where sigmoid is 0
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
        # a finite norm implies finite components (inf * 0 makes a NaN one)
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.isfinite(self.scale)
                    and np.isfinite(np.linalg.norm(self.scale * mags))):
                raise ConfigurationError(
                    "scale, the realized vector and its norm must be finite")
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


class TreatmentLayout:
    """K subjects' ``Trials`` of one treatment, stacked in order, as the
    kernel reads them: the one place where a treatment's payload becomes
    per-trial terms.

    ``subject`` (T,) numbers each trial's subject 0..K-1.  Immediate and
    delayed trial t moves by the logit shift c_t = direction_t * x_t .
    delta_(block_t) (``shift``), where direction is 2r - 1 (times the
    confidence for immediate assistance) and block = subject * B + branch
    picks one of the K * B shift vectors, stacked subject by subject: B = 1
    for immediate (direct), and B = 2 for delayed, whose branch is affirm
    (0) when the recommendation matches the trial's ``initial`` decision
    and contra (1) otherwise.  Explanation trials carry
    their ``masks`` (T x n, float).

    There must be at least one subject, each with trials of a single
    subject_id, every trial of ``treatment`` (default: the first trial's),
    and as many features as the ensemble's members weigh.
    """

    def __init__(self, trial_sets, ensemble: np.ndarray, treatment=None):
        trial_sets = list(trial_sets)
        if not trial_sets:
            raise UsageError("at least one subject's trials are required")
        for subject in trial_sets:
            if not len(subject):
                raise UsageError("every subject needs at least one trial")
            ids = sorted(set(subject.subject_id.tolist()))
            if len(ids) != 1:
                raise UsageError(f"trials span multiple subjects: {ids}")
        trials = Trials.concat(trial_sets)
        self.treatment = Treatment(trials.treatment[0] if treatment is None
                                   else treatment)
        other = trials.treatment[trials.treatment != self.treatment]
        if other.size:
            raise UsageError(f"trial treatment {other[0].value!r} does not match "
                             f"{self.treatment.value!r}")
        if trials.n_features != ensemble.shape[1] - 1:
            raise ConfigurationError(
                f"posterior has {ensemble.shape[1] - 1} features but the "
                f"trials have {trials.n_features}")
        self.sizes = [len(subject) for subject in trial_sets]
        self.n_subjects = len(self.sizes)
        self.subject = np.repeat(np.arange(self.n_subjects), self.sizes)  # (T,)
        self.features = trials.features                                   # (T, n)
        self.final = trials.final_decision
        self.initial = None
        if self.treatment == Treatment.EXPLANATION:
            self.masks = trials.explanation_mask.astype(float)
        if self.treatment not in (Treatment.IMMEDIATE, Treatment.DELAYED):
            return
        rec = trials.ai_recommendation
        if self.treatment == Treatment.IMMEDIATE:
            self.direction = (2.0 * rec - 1.0) * trials.ai_confidence     # (T,)
            self.n_branches, branch = 1, 0
        else:
            self.initial = trials.initial_decision
            self.direction = 2.0 * rec - 1.0
            self.n_branches, branch = 2, (rec != self.initial).astype(np.intp)
        self.block = self.subject * self.n_branches + branch             # (T,)

    def shift(self, deltas: np.ndarray) -> np.ndarray:
        """Each trial's logit shift (..., T) under the stacked shift vectors
        ``deltas`` (..., K * B, n)."""
        return self.direction * (deltas[..., self.block, :]
                                 * self.features).sum(axis=-1)


def decision_probability(trial_sets, posterior: PopulationPosterior, params,
                         clip_eps: float = PROBABILITY_EPS) -> np.ndarray:
    """Probability that each trial's final decision is 1, clipped to
    [clip_eps, 1 - clip_eps]: a (T,) array over K subjects' trials.

    ``trial_sets`` is a list of K subjects' ``Trials``, all of one
    treatment (see ``TreatmentLayout``), and ``params`` their K nudge
    parameters; the independent treatment takes None for each and is the
    ensemble response at c = 0.  The trials are scored in one evaluation
    of the kernel, in order.  The clip keeps log likelihoods finite for
    degenerate ensembles.
    """
    trial_sets = list(trial_sets)
    params = list(params)
    if len(params) != len(trial_sets):
        raise UsageError(f"{len(params)} parameter sets for {len(trial_sets)} subjects")
    ensemble = posterior.ensemble
    layout = TreatmentLayout(trial_sets, ensemble)
    treatment = layout.treatment
    wanted = None if treatment == Treatment.INDEPENDENT else treatment
    if any((None if p is None else p.treatment) != wanted for p in params):
        raise UsageError(f"trial treatment {treatment.value!r} does not match "
                         f"the parameters provided")
    if treatment == Treatment.INDEPENDENT:
        probability = _unassisted(ensemble, layout.features)
    elif treatment == Treatment.EXPLANATION:
        attention = np.asarray([p.delta_exp for p in params])[layout.subject]
        probability = attention_mixture(
            attention, *explanation_means(ensemble, layout.features, layout.masks))
    else:
        # each subject's vectors in block order: direct, or affirm, contra
        deltas = np.array([v.realized for p in params for v in
                           (p.delta_direct, p.delta_affirm, p.delta_contra)
                           if v is not None])                            # (K * B, n)
        probability = _response_at(ensemble, layout.features,
                                   layout.shift(deltas), layout.initial)
    return np.clip(probability, clip_eps, 1.0 - clip_eps)
