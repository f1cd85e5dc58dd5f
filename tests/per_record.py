"""The per-record predictors that ``nudgelab.nudge``'s batched kernel
replaced, and the per-task logistic response and decision draw that the
batched simulator replaced, kept as an independent oracle: one trial at a
time, with the ensemble's logits from a matrix-vector product.  Its
sigmoid is written out below as the package computes it, 1 / (1 + e^-x),
so that a batch can be checked against it to the bit.  Below them, the
nudge objective's first per-iteration arithmetic, the bit-for-bit oracle
of the rewritten one."""

import numpy as np

from nudgelab import ConfigurationError, Treatment
from nudgelab.fitting import _GRID_LO, _GRID_NODES, _GRID_STEP, _theta_gradient
from nudgelab.nudge import PROBABILITY_EPS


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


# The nudge objective's per-iteration arithmetic as it was first written,
# kept as the oracle of the rewritten one: each trial's shift summed over
# the feature axis by numpy, every ensemble evaluated through the member
# loop, and the response table's six coefficient columns taken one at a
# time.  The blocks a lookup reads are built as the package builds them.

def layout_shift(layout, deltas):
    """Each trial's logit shift (..., T) under stacked shift vectors
    ``deltas`` (..., K * B, n) of a ``TreatmentLayout``."""
    return layout.direction * (deltas[..., layout.block, :]
                               * layout.features).sum(axis=-1)


def member_loop(response, shift):
    """(p, dp/dc) of an ``EnsembleResponse`` at shifts (..., T), through
    its member loop whatever its ensemble size."""
    rows = np.broadcast_to(response.columns, shift.shape)
    p, slope, _ = response._rows(rows.ravel(), shift.ravel())
    return p.reshape(shift.shape), slope.reshape(shift.shape)


def six_take_lookup(response, shift):
    """(p, dp/dc) of a tabulated response at shifts (..., T) from its
    quintic Hermite table, one take per coefficient; off the grid, the
    member loop for that trial."""
    u = (shift - _GRID_LO) / _GRID_STEP
    node = np.floor(u)
    off = (node < 0.0) | (node > _GRID_NODES - 2)
    node[off] = 0.0
    u[off] = 0.0
    u -= node
    at = node.astype(np.intp) * len(response.base) + response.columns
    missing = (response.slot.take(at) < 0) & ~off
    if missing.any():
        response._build(at[missing])
    slot = np.where(off, 0, response.slot.take(at))
    a0, a1, a2, a3, a4, a5 = (column.take(slot) for column in response.coef.T)
    p = a5 * u
    dp_du = 5.0 * a5
    for j, a in ((4, a4), (3, a3), (2, a2), (1, a1)):
        p += a
        p *= u
        dp_du *= u
        dp_du += j * a
    p += a0
    dp_dc = dp_du / _GRID_STEP
    if off.any():
        p[off], dp_dc[off], _ = response._rows(
            response.columns[np.nonzero(off)[-1]], shift[off])
    return p, dp_dc


def objective_value_and_gradient(objective, theta):
    """``NudgeObjective.value_and_gradient`` of an immediate or delayed
    objective at stacked rows ``theta`` (R, K, P): each subject's
    penalized mean NLL (R, K) and its gradient (R, K, P)."""
    blocks = theta.reshape(theta.shape[0], -1, 1 + objective.n)
    mags = np.logaddexp(0.0, blocks[..., 1:])
    deltas = blocks[..., :1] * mags
    layout = objective.layout
    shift = layout_shift(layout, deltas)
    response = objective.response
    lookup = six_take_lookup if response.tabulated else member_loop
    probs, slope = lookup(response, shift)
    eps, final = PROBABILITY_EPS, objective.final
    clipped = np.clip(probs, eps, 1.0 - eps)
    loglik = final * np.log(clipped) + (1.0 - final) * np.log1p(-clipped)
    value = -objective.by_subject(loglik) / objective.subject_trials
    interior = (probs > eps) & (probs < 1.0 - eps)
    dvalue_dp = np.where(
        interior,
        (clipped - final) / (clipped * (1.0 - clipped)) / objective.trial_count,
        0.0)
    dshift = dvalue_dp * slope * layout.direction
    ddelta = objective.by_block(dshift[..., None] * layout.features)
    grad = _theta_gradient(blocks, mags, ddelta).reshape(theta.shape)
    if objective.l2_penalty > 0.0:
        value_pen, grad_pen = objective._penalty(theta)
        value, grad = value + value_pen, grad + grad_pen
    return value, grad
