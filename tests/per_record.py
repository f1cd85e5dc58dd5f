"""The per-record predictors that ``nudgelab.nudge``'s batched kernel
replaced, kept as an independent oracle: one trial at a time, with the
ensemble's logits from a matrix-vector product and scipy's ``expit``."""

import numpy as np
from scipy.special import expit

from nudgelab import Treatment


def augmented(features):
    return np.append(features, 1.0)


def ensemble_probability(members, features, shift=0.0):
    """Mean logistic response of ``members`` with a scalar logit shift."""
    logits = members @ augmented(features)
    if shift != 0.0:
        logits = logits + shift
    return float(np.mean(expit(logits)))


def predict_independent(posterior, features):
    return ensemble_probability(posterior.ensemble, features)


def condition_on_decision(posterior, features, observed):
    """(members whose own decision is ``observed``, whether none was and
    the whole ensemble came back instead)."""
    keep = (expit(posterior.ensemble @ augmented(features)) >= 0.5) == bool(observed)
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
    mixture = (attention * expit(posterior.ensemble @ focused)
               + (1.0 - attention) * expit(posterior.ensemble @ ignored))
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
