"""The per-record predictors that ``nudgelab.nudge``'s batched kernel
replaced, and the per-task logistic response and decision draw that the
batched simulator replaced, kept as an independent oracle: one trial at a
time, with the ensemble's logits from a matrix-vector product.  Its
sigmoid is written out below as the package computes it, 1 / (1 + e^-x),
so that a batch can be checked against it to the bit."""

import numpy as np

from nudgelab import ConfigurationError, Treatment


def sigmoid(x):
    """1 / (1 + e^-x); e^-x overflows to inf where the result is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def logistic_response(features, w):
    """Probability of deciding 1 on one task: sigmoid(w . x + bias)."""
    if len(features) != w.n_features:
        raise ConfigurationError(
            f"task has {len(features)} features but weights expect {w.n_features}")
    return float(sigmoid(float(w.weights @ features) + w.bias))


def sample_decision(probability, temperature, rng):
    """One simulated final decision: thresholded at temperature 0, else a
    Bernoulli draw at the temperature-scaled probability."""
    if temperature == 0.0:
        return int(probability >= 0.5)
    p = float(np.clip(probability, 1e-12, 1.0 - 1e-12))
    tempered = float(sigmoid(np.log(p / (1.0 - p)) / temperature))
    return int(rng.random() < tempered)


def augmented(features):
    return np.append(features, 1.0)


def ensemble_probability(members, features, shift=0.0):
    """Mean logistic response of ``members`` with a scalar logit shift."""
    logits = members @ augmented(features)
    if shift != 0.0:
        logits = logits + shift
    return float(np.mean(sigmoid(logits)))


def predict_independent(posterior, features):
    return ensemble_probability(posterior.ensemble, features)


def condition_on_decision(posterior, features, observed):
    """(members whose own decision is ``observed``, whether none was and
    the whole ensemble came back instead)."""
    keep = (sigmoid(posterior.ensemble @ augmented(features)) >= 0.5) == bool(observed)
    if not np.any(keep):
        return posterior.ensemble, True
    return posterior.ensemble[keep], False


def predict_immediate(posterior, features, recommendation, confidence, delta):
    shift = (2 * recommendation - 1) * confidence * float(delta @ features)
    return ensemble_probability(posterior.ensemble, features, shift)


def predict_delayed(posterior, features, recommendation, initial, affirm, contra):
    members, _ = condition_on_decision(posterior, features, initial)
    branch = affirm if recommendation == initial else contra
    shift = (2 * recommendation - 1) * float(branch @ features)
    return ensemble_probability(members, features, shift)


def predict_explanation(posterior, features, mask, attention):
    focused = augmented(mask * features)
    ignored = augmented((1 - mask) * features)
    mixture = (attention * sigmoid(posterior.ensemble @ focused)
               + (1.0 - attention) * sigmoid(posterior.ensemble @ ignored))
    return float(np.mean(mixture))


def decision_probability(trials, row, posterior, params):
    """The unclipped probability of a final decision of 1 of one row of a
    ``Trials`` table."""
    x = trials.features[row]
    treatment = trials.treatment[row]
    if treatment == Treatment.INDEPENDENT:
        return predict_independent(posterior, x)
    if treatment == Treatment.IMMEDIATE:
        return predict_immediate(posterior, x, trials.ai_recommendation[row],
                                 trials.ai_confidence[row], params.delta_direct.realized)
    if treatment == Treatment.DELAYED:
        return predict_delayed(posterior, x, trials.ai_recommendation[row],
                               trials.initial_decision[row], params.delta_affirm.realized,
                               params.delta_contra.realized)
    return predict_explanation(posterior, x, trials.explanation_mask[row],
                               params.delta_exp)
