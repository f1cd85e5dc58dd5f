"""Synthetic decision makers with known ground truth.

A linear surrogate AI produces recommendations, confidences and top-k
explanation masks; synthetic subjects with known weights and nudge
parameters forward-sample behavior records.  The generated datasets feed
the parameter-recovery harnesses and the data-efficiency experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, sigmoid
from .core import PopulationPosterior, TaskInstance, WeightVector, logistic_response
from .errors import ConfigurationError, UsageError
from .nudge import (
    NudgeParams,
    SignedSharedSignVector,
    _unassisted,
    predict_delayed,
    predict_explanation,
    predict_immediate,
)
from .records import BehaviorRecord, Treatment

__all__ = [
    "SurrogateAI",
    "SyntheticSubject",
    "ai_recommend",
    "ai_explain",
    "generate_behavior",
    "uniform_tasks",
    "random_shared_sign",
    "random_nudge_params",
    "make_synthetic_subjects",
    "default_population_moments",
    "default_surrogate_ai",
]


@dataclass(frozen=True)
class SurrogateAI:
    """Logistic stand-in for the AI decision aid, with top-k explanations."""

    weights: WeightVector
    top_k: int = 2

    def __post_init__(self):
        if not 1 <= self.top_k <= self.weights.n_features:
            raise ConfigurationError("top_k must lie in [1, n_features]")


@dataclass(frozen=True)
class SyntheticSubject:
    """Ground-truth decision maker: known weights, known nudge response."""

    subject_id: str
    true_weights: WeightVector
    true_params: NudgeParams | None
    treatment: Treatment
    noise_temperature: float = 1.0
    crt_score: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "treatment", Treatment(self.treatment))
        if self.noise_temperature < 0:
            raise ConfigurationError("noise_temperature must be nonnegative")
        if self.treatment == Treatment.INDEPENDENT:
            if self.true_params is not None:
                raise ConfigurationError("independent subjects carry no nudge params")
        else:
            if self.true_params is None or self.true_params.treatment != self.treatment:
                raise ConfigurationError("true_params must match the treatment")


def ai_recommend(ai: SurrogateAI, task: TaskInstance) -> tuple[int, float]:
    """Binary recommendation and its confidence max(p, 1-p)."""
    p = logistic_response(task, ai.weights)
    recommendation = int(p >= 0.5)
    return recommendation, max(p, 1.0 - p)


def ai_explain(ai: SurrogateAI, task: TaskInstance) -> np.ndarray:
    """Mask of the top-k features by |w_i * (x_i - 0.5)|, ties to the lowest index."""
    if task.n_features != ai.weights.n_features:
        raise ConfigurationError("task dimensionality does not match the AI model")
    contribution = np.abs(ai.weights.weights * (task.features - 0.5))
    order = np.lexsort((np.arange(contribution.size), -contribution))
    mask = np.zeros(contribution.size, dtype=int)
    mask[order[: ai.top_k]] = 1
    return mask


def _sample_decision(probability: float, temperature: float,
                     rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(probability >= 0.5)
    p = float(np.clip(probability, 1e-12, 1.0 - 1e-12))
    tempered = float(sigmoid(np.log(p / (1.0 - p)) / temperature))
    return int(rng.random() < tempered)


def generate_behavior(
    subject: SyntheticSubject,
    tasks: list[TaskInstance],
    ai: SurrogateAI,
    seed: int,
) -> list[BehaviorRecord]:
    """Forward-sample one record per task from the subject's true model.

    The subject's own weights act as a singleton ensemble, so the nudged
    probability is the exact generative probability; one predictor call
    gives every trial's.  The final decision is Bernoulli at
    (temperature-scaled) face probability, or thresholded when the
    temperature is zero.  Delayed initial decisions are the unnudged
    decisions: 1 where the unassisted probability is at least 0.5.
    """
    if not tasks:
        raise UsageError("generate_behavior requires at least one task")
    rng = np.random.default_rng(seed)
    point = PopulationPosterior.point(subject.true_weights)
    params = subject.true_params
    features = np.stack([task.features for task in tasks])
    fields: dict = {}
    if subject.treatment == Treatment.INDEPENDENT:
        probability = _unassisted(point.ensemble, features)
    elif subject.treatment == Treatment.IMMEDIATE:
        rec, conf = zip(*(ai_recommend(ai, task) for task in tasks))
        probability = predict_immediate(point, features, rec, conf,
                                        params.delta_direct.realized)
        fields = dict(ai_recommendation=rec, ai_confidence=conf)
    elif subject.treatment == Treatment.DELAYED:
        rec = [ai_recommend(ai, task)[0] for task in tasks]
        initial = (_unassisted(point.ensemble, features) >= 0.5).astype(int)
        probability = predict_delayed(point, features, rec, initial,
                                      params.delta_affirm.realized,
                                      params.delta_contra.realized)
        fields = dict(ai_recommendation=rec,
                      initial_decision=initial.tolist())
    else:
        masks = [ai_explain(ai, task) for task in tasks]
        probability = predict_explanation(point, features, masks, params.delta_exp)
        fields = dict(explanation_mask=masks)
    out: list[BehaviorRecord] = []
    for index, task in enumerate(tasks):
        final = _sample_decision(float(probability[index]),
                                 subject.noise_temperature, rng)
        out.append(BehaviorRecord(
            subject_id=subject.subject_id,
            treatment=subject.treatment,
            trial_index=index,
            features=task.features,
            final_decision=final,
            crt_score=subject.crt_score,
            **{name: values[index] for name, values in fields.items()},
        ))
    return out


def uniform_tasks(n_tasks: int, n_features: int, seed: int) -> list[TaskInstance]:
    """Tasks with features drawn uniformly on [0, 1]^n."""
    rng = np.random.default_rng(seed)
    return [TaskInstance(features=row) for row in rng.random((n_tasks, n_features))]


def random_shared_sign(
    n_features: int,
    rng: np.random.Generator,
    scale_range: tuple[float, float] = (0.5, 2.0),
    magnitude_range: tuple[float, float] = (0.3, 1.0),
) -> SignedSharedSignVector:
    """Shared-sign vector with random sign, |scale| and magnitudes in the ranges."""
    sign = 1.0 if rng.random() < 0.5 else -1.0
    scale = sign * rng.uniform(*scale_range)
    magnitudes = rng.uniform(*magnitude_range, size=n_features)
    return SignedSharedSignVector(scale=scale, magnitudes=magnitudes)


def random_nudge_params(
    treatment: Treatment,
    n_features: int,
    rng: np.random.Generator,
    scale_range: tuple[float, float] = (0.5, 2.0),
    magnitude_range: tuple[float, float] = (0.3, 1.0),
) -> NudgeParams | None:
    if treatment == Treatment.INDEPENDENT:
        return None
    if treatment == Treatment.IMMEDIATE:
        return NudgeParams.for_immediate(
            random_shared_sign(n_features, rng, scale_range, magnitude_range)
        )
    if treatment == Treatment.DELAYED:
        return NudgeParams.for_delayed(
            random_shared_sign(n_features, rng, scale_range, magnitude_range),
            random_shared_sign(n_features, rng, scale_range, magnitude_range),
        )
    return NudgeParams.for_explanation(float(rng.uniform(0.0, 1.0)))


def make_synthetic_subjects(
    treatment: Treatment,
    n_subjects: int,
    weight_mean: np.ndarray,
    weight_variance: np.ndarray,
    seed: int,
    noise_temperature: float = 1.0,
    scale_range: tuple[float, float] = (0.5, 2.0),
    magnitude_range: tuple[float, float] = (0.3, 1.0),
    id_prefix: str = "syn",
) -> list[SyntheticSubject]:
    """Subjects whose weights are draws from N(mean, diag(variance)).

    Nudge parameters are drawn independently per subject; CRT scores are
    uniform over 0..3 so cognitive-style grouping is exercised end to end.
    """
    weight_mean = np.asarray(weight_mean, dtype=float)
    weight_variance = np.asarray(weight_variance, dtype=float)
    n = weight_mean.size - 1
    rng = np.random.default_rng(derive_seed(seed, treatment.value, "subjects"))
    subjects = []
    for i in range(n_subjects):
        draw = weight_mean + np.sqrt(weight_variance) * rng.standard_normal(n + 1)
        subjects.append(SyntheticSubject(
            subject_id=f"{id_prefix}_{treatment.value}_{i:03d}",
            true_weights=WeightVector(weights=draw[:-1], bias=draw[-1]),
            true_params=random_nudge_params(
                treatment, n, rng, scale_range, magnitude_range
            ),
            treatment=treatment,
            noise_temperature=noise_temperature,
            crt_score=int(rng.integers(0, 4)),
        ))
    return subjects


_WEIGHT_PATTERN = [2.0, -1.6, 1.2, 0.9, -0.7, 0.5]


def default_population_moments(
    n_features: int, variance: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Population weight mean/variance used by the synthetic experiments.

    The mean cycles a fixed signed pattern and the intercept centers the
    average logit at zero for uniform features, so simulated base rates
    sit near one half.
    """
    weights = np.array([
        _WEIGHT_PATTERN[i % len(_WEIGHT_PATTERN)] for i in range(n_features)
    ])
    bias = -0.5 * float(np.sum(weights))
    mean = np.append(weights, bias)
    return mean, np.full(n_features + 1, variance)


def default_surrogate_ai(n_features: int, top_k: int = 2) -> SurrogateAI:
    """Surrogate AI: a sharpened population pattern with a weight perturbation.

    The perturbation keeps the AI agreeing with a typical subject on most
    but not all tasks, so delayed-recommendation data contains both
    affirming and contradicting trials.
    """
    mean, _ = default_population_moments(n_features)
    tilt = np.asarray([0.8 if i % 2 else -0.8 for i in range(n_features)])
    weights = 1.4 * mean[:-1] + tilt
    bias = -0.5 * float(np.sum(weights))
    return SurrogateAI(weights=WeightVector(weights=weights, bias=bias), top_k=top_k)
