"""Predicting assisted decisions as perturbations of the population posterior.

Each assistance form nudges the decision maker by shifting the feature
weights of every ensemble member (never the intercept):

* immediate assistance shifts by ``(2*y_m - 1) * confidence * delta``;
* a delayed recommendation first filters the ensemble on the observed
  initial decision, then shifts by ``(2*y_m - 1)`` times the affirm or
  contradict vector depending on whether the recommendation matches;
* an explanation-only mask mixes the responses to the highlighted and
  non-highlighted feature subsets with attention weight ``delta_exp``
  (the intercept participates in both mixture terms).

Shift vectors share one sign across coordinates: they are stored as a
signed scalar times nonnegative magnitudes, so trust (+) versus distrust
of the AI is a single degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ._util import sigmoid
from .core import (
    FilteredEnsemble,
    PopulationPosterior,
    TaskInstance,
    _check_dims,
    _frozen_array,
    condition_on_decision,
    ensemble_probability,
)
from .errors import ConfigurationError, InputError, UsageError
from .records import BehaviorRecord, Treatment

__all__ = [
    "ImmediateAssistance",
    "DelayedAssistance",
    "ExplanationAssistance",
    "Assistance",
    "SignedSharedSignVector",
    "NudgeParams",
    "predict_immediate",
    "predict_delayed",
    "predict_explanation",
    "decision_probability",
    "PROBABILITY_EPS",
]

PROBABILITY_EPS = 1e-6


@dataclass(frozen=True)
class ImmediateAssistance:
    """AI recommendation and confidence shown before the human deliberates."""

    recommendation: int
    confidence: float

    def __post_init__(self):
        if self.recommendation not in (0, 1):
            raise InputError("recommendation must be 0 or 1")
        if not 0.5 <= self.confidence <= 1.0:
            raise InputError(f"confidence must lie in [0.5, 1], got {self.confidence}")


@dataclass(frozen=True)
class DelayedAssistance:
    """AI recommendation revealed after the human committed an initial decision."""

    recommendation: int
    initial_decision: int

    def __post_init__(self):
        if self.recommendation not in (0, 1):
            raise InputError("recommendation must be 0 or 1")
        if self.initial_decision not in (0, 1):
            raise InputError("initial_decision must be 0 or 1")


@dataclass(frozen=True)
class ExplanationAssistance:
    """Binary mask of the features the AI highlights as most influential."""

    mask: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=int)
        if mask.ndim != 1 or not np.all(np.isin(mask, (0, 1))):
            raise InputError("mask must be a 1-D 0/1 vector")
        object.__setattr__(self, "mask", _frozen_array(mask, dtype=int))


Assistance = Union[ImmediateAssistance, DelayedAssistance, ExplanationAssistance]


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
        if not np.isfinite(self.scale):
            raise ConfigurationError("scale must be finite")
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


def predict_immediate(
    posterior: PopulationPosterior,
    task: TaskInstance,
    assist: ImmediateAssistance,
    delta: SignedSharedSignVector,
) -> tuple[float, int]:
    """Final-decision probability under an upfront recommendation.

    Every ensemble member's feature weights are shifted by
    ``(2*y_m - 1) * confidence * delta`` before the logistic response is
    averaged; the intercept is never shifted.
    """
    _check_dims(posterior, task)
    if delta.magnitudes.size != task.n_features:
        raise ConfigurationError("delta dimensionality does not match the task")
    direction = 2 * assist.recommendation - 1
    shift = direction * assist.confidence * float(delta.realized @ task.features)
    probability = ensemble_probability(posterior.ensemble, task, shift)
    return probability, int(probability >= 0.5)


def predict_delayed(
    posterior: PopulationPosterior,
    task: TaskInstance,
    assist: DelayedAssistance,
    affirm: SignedSharedSignVector,
    contra: SignedSharedSignVector,
) -> tuple[float, int]:
    """Final-decision probability under a delayed recommendation.

    The ensemble is first conditioned on the observed initial decision;
    the affirm vector applies when the recommendation matches it, the
    contradict vector otherwise.
    """
    for delta in (affirm, contra):
        if delta.magnitudes.size != task.n_features:
            raise ConfigurationError("delta dimensionality does not match the task")
    filtered: FilteredEnsemble = condition_on_decision(
        posterior, task, assist.initial_decision
    )
    branch = affirm if assist.recommendation == assist.initial_decision else contra
    direction = 2 * assist.recommendation - 1
    shift = direction * float(branch.realized @ task.features)
    probability = ensemble_probability(filtered.members, task, shift)
    return probability, int(probability >= 0.5)


def predict_explanation(
    posterior: PopulationPosterior,
    task: TaskInstance,
    assist: ExplanationAssistance,
    delta_exp: float,
) -> tuple[float, int]:
    """Final-decision probability under an explanation-only mask.

    Mixes each member's response to the highlighted features with its
    response to the remaining features, weighting the highlighted part by
    ``delta_exp``.  Masked-out features contribute zero to the linear
    score; the intercept is kept in both terms.
    """
    _check_dims(posterior, task)
    if not 0.0 <= delta_exp <= 1.0:
        raise InputError(f"delta_exp must lie in [0, 1], got {delta_exp}")
    if assist.mask.size != task.n_features:
        raise ConfigurationError("mask length does not match the task")
    mask = assist.mask.astype(float)
    focused = np.append(mask * task.features, 1.0)
    ignored = np.append((1.0 - mask) * task.features, 1.0)
    response_focused = sigmoid(posterior.ensemble @ focused)
    response_ignored = sigmoid(posterior.ensemble @ ignored)
    mixture = delta_exp * response_focused + (1.0 - delta_exp) * response_ignored
    probability = float(np.mean(mixture))
    return probability, int(probability >= 0.5)


def _clip_probability(p: float, eps: float) -> float:
    return min(max(p, eps), 1.0 - eps)


def decision_probability(
    record: BehaviorRecord,
    posterior: PopulationPosterior,
    params: NudgeParams | None,
    clip_eps: float = PROBABILITY_EPS,
) -> float:
    """Probability that the record's final decision is 1, clipped away from {0, 1}.

    Dispatches to the predictor matching the record's treatment; the
    independent treatment takes ``params=None``.  The clip keeps log
    likelihoods finite for degenerate ensembles.
    """
    task = record.task()
    treatment = record.treatment
    if treatment == Treatment.INDEPENDENT:
        if params is not None:
            raise UsageError("independent records take no nudge parameters")
        probability = ensemble_probability(posterior.ensemble, task)
        return _clip_probability(probability, clip_eps)
    if params is None or params.treatment != treatment:
        raise UsageError(
            f"record treatment {treatment.value!r} does not match the "
            f"parameters provided"
        )
    if treatment == Treatment.IMMEDIATE:
        assist = ImmediateAssistance(record.ai_recommendation, record.ai_confidence)
        probability, _ = predict_immediate(posterior, task, assist, params.delta_direct)
    elif treatment == Treatment.DELAYED:
        assist = DelayedAssistance(record.ai_recommendation, record.initial_decision)
        probability, _ = predict_delayed(
            posterior, task, assist, params.delta_affirm, params.delta_contra
        )
    else:
        assist = ExplanationAssistance(record.explanation_mask)
        probability, _ = predict_explanation(posterior, task, assist, params.delta_exp)
    return _clip_probability(probability, clip_eps)
