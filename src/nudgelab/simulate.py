"""Synthetic decision makers with known ground truth.

Tasks are a (T, n) feature matrix with values in [0, 1]: ``uniform_tasks``
draws a pool, and a subject's tasks are rows of it.  A linear surrogate AI
gives each row a recommendation, a confidence and a top-k explanation
mask; synthetic subjects with known weights and nudge parameters
forward-sample one behavior trial per row, every trial in one batch.  The
generated datasets feed the parameter-recovery harnesses and the
data-efficiency experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, sigmoid
from .core import PopulationPosterior, WeightVector
from .errors import ConfigurationError
from .nudge import NudgeParams, SignedSharedSignVector, decision_probability
from .records import Treatment, Trials

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


def _ai_features(ai: SurrogateAI, features) -> np.ndarray:
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != ai.weights.n_features:
        raise ConfigurationError(
            f"tasks of shape {features.shape} do not match the AI model's "
            f"{ai.weights.n_features} features")
    return features


def ai_recommend(ai: SurrogateAI, features) -> tuple[np.ndarray, np.ndarray]:
    """Binary recommendations (T,) for tasks (T, n), and their confidences
    max(p, 1-p)."""
    features = _ai_features(ai, features)
    w = ai.weights.weights
    # each row's score is one BLAS dot product, the bits of ``w @ x``
    score = np.matmul(features[:, None, :], w[:, None])[:, 0, 0]
    p = sigmoid(score + ai.weights.bias)
    return (p >= 0.5).astype(int), np.maximum(p, 1.0 - p)


def ai_explain(ai: SurrogateAI, features) -> np.ndarray:
    """Masks (T, n) of each task's top-k features by |w_i * (x_i - 0.5)|,
    ties to the lowest index."""
    features = _ai_features(ai, features)
    contribution = np.abs(ai.weights.weights * (features - 0.5))
    order = np.argsort(-contribution, axis=1, kind="stable")
    masks = np.zeros(features.shape, dtype=int)
    np.put_along_axis(masks, order[:, :ai.top_k], 1, axis=1)
    return masks


def generate_behavior(
    subject: SyntheticSubject,
    features,
    ai: SurrogateAI,
    seed: int,
) -> Trials:
    """Forward-sample one trial per task (a row of ``features``, T x n)
    from the subject's true model.

    The subject's own weights act as a singleton ensemble, so the nudged
    probability is the exact generative probability; one
    ``decision_probability`` call on the table of the tasks and their AI
    payload gives every trial's.  The final decision is Bernoulli at
    (temperature-scaled) face probability, one uniform draw per trial in
    order, or thresholded when the temperature is zero.  Delayed initial
    decisions are the unnudged decisions: 1 where the unassisted
    probability is at least 0.5.
    """
    point = PopulationPosterior.point(subject.true_weights)
    features = np.asarray(features, dtype=float)
    n_trials = len(features) if features.ndim else 0   # Trials refuses a non-matrix

    def table(treatment, final, payload):
        return Trials(
            subject_id=[subject.subject_id] * n_trials,
            treatment=[treatment] * n_trials,
            trial_index=np.arange(n_trials),
            features=features,
            final_decision=final,
            crt_score=[subject.crt_score] * n_trials,
            **payload,
        )

    def probability(treatment, params, payload):
        trials = table(treatment, np.zeros(n_trials, dtype=int), payload)
        return decision_probability([trials], point, [params], clip_eps=1e-12)

    payload: dict = {}
    if subject.treatment == Treatment.IMMEDIATE:
        rec, conf = ai_recommend(ai, features)
        payload = dict(ai_recommendation=rec, ai_confidence=conf)
    elif subject.treatment == Treatment.DELAYED:
        rec, _ = ai_recommend(ai, features)
        initial = probability(Treatment.INDEPENDENT, None, {}) >= 0.5
        payload = dict(ai_recommendation=rec, initial_decision=initial)
    elif subject.treatment == Treatment.EXPLANATION:
        payload = dict(explanation_mask=ai_explain(ai, features))
    p = probability(subject.treatment, subject.true_params, payload)
    temperature = subject.noise_temperature
    if temperature == 0.0:
        final = p >= 0.5
    else:
        # a tiny temperature overflows the scaled logit to +-inf: p is 0 or 1
        with np.errstate(over="ignore"):
            tempered = sigmoid(np.log(p / (1.0 - p)) / temperature)
        final = np.random.default_rng(seed).random(n_trials) < tempered
    return table(subject.treatment, final, payload)


def uniform_tasks(n_tasks: int, n_features: int, seed: int) -> np.ndarray:
    """Tasks (n_tasks, n_features) with features drawn uniformly on [0, 1]."""
    rng = np.random.default_rng(seed)
    try:
        return rng.random((n_tasks, n_features))
    except (MemoryError, ValueError, OverflowError):
        raise ConfigurationError(
            f"cannot allocate {n_tasks} tasks of {n_features} features") from None


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


def _cycle(pattern, n_features: int) -> np.ndarray:
    """``pattern`` repeated to length ``n_features``."""
    try:
        return np.resize(pattern, n_features)
    except (MemoryError, ValueError, OverflowError):
        raise ConfigurationError(
            f"cannot allocate weights for {n_features} features") from None


def default_population_moments(
    n_features: int, variance: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """Population weight mean/variance used by the synthetic experiments.

    The mean cycles a fixed signed pattern and the intercept centers the
    average logit at zero for uniform features, so simulated base rates
    sit near one half.
    """
    weights = _cycle(_WEIGHT_PATTERN, n_features)
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
    tilt = _cycle([-0.8, 0.8], n_features)
    weights = 1.4 * mean[:-1] + tilt
    bias = -0.5 * float(np.sum(weights))
    return SurrogateAI(weights=WeightVector(weights=weights, bias=bias), top_k=top_k)
