"""Evaluation protocol: metrics, per-subject splits, baseline, data-efficiency.

Every function takes a ``Trials`` table of one treatment.  Each subject's
rows are split into train and test halves per run seed; the framework
fits nudge parameters on the train half and is scored on the test half,
and the per-subject logistic baseline, whose design matrix is built from
the table's columns, consumes exactly the same splits so comparisons are
paired.  Aggregates are means over subjects, then over runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import derive_seed, newton, sigmoid
from .core import PopulationPosterior
from .errors import ConfigurationError, UsageError
# fit_nudge stays importable here: perfbench/selftest.py looks it up in this module
from .fitting import FitConfig, fit_nudge, fit_nudge_batch  # noqa: F401
from .nudge import PROBABILITY_EPS, decision_probability
from .records import Treatment, Trials, group_by_subject

__all__ = [
    "SplitPlan",
    "SubjectMetrics",
    "EvalReport",
    "CurvePoint",
    "metrics",
    "split_trials",
    "evaluate_framework",
    "baseline_logistic",
    "learning_curve",
]

UNINFORMATIVE_NLL = float(np.log(2.0))  # constant p=0.5 reference

# The logistic baseline's Newton step cap.  On random designs of 2-30 rows
# it converges within 9 steps.
_NEWTON_MAX_STEPS = 50


@dataclass(frozen=True)
class SplitPlan:
    """Train fraction and the seeds of the repeated evaluation runs."""

    train_fraction: float = 0.5
    run_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must lie in (0, 1)")
        if len(self.run_seeds) < 1:
            raise ConfigurationError("at least one run seed is required")
        object.__setattr__(self, "run_seeds", tuple(int(s) for s in self.run_seeds))


@dataclass(frozen=True)
class SubjectMetrics:
    subject_id: str
    nll: float
    accuracy: float
    f1: float


@dataclass(frozen=True)
class EvalReport:
    treatment: Treatment
    nll: float
    accuracy: float
    f1: float
    n_subjects: int
    n_runs: int
    per_subject: tuple[SubjectMetrics, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class CurvePoint:
    size: int
    method: str
    run_seed: int
    nll: float
    f1: float


def metrics(probabilities, truths) -> tuple[float, float, float]:
    """(NLL, accuracy, F1) of probabilities of decision 1 against 0/1 truths.

    The NLL reads each probability clipped to [``PROBABILITY_EPS``,
    1 - ``PROBABILITY_EPS``].  Each predicted decision is 1 where its
    probability is at least 0.5, the package's tie rule.  F1 uses decision 1
    as the positive class; with no positive truths and no positive
    predictions it is 1 by convention.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    y = np.asarray(truths)
    if probabilities.shape != y.shape or probabilities.ndim != 1:
        raise UsageError("probabilities and truths must have equal length")
    if not probabilities.size:
        raise UsageError("metrics require at least one prediction")
    probs = np.clip(probabilities, PROBABILITY_EPS, 1.0 - PROBABILITY_EPS)
    decisions = probabilities >= 0.5
    nll = -float(np.mean(y * np.log(probs) + (1 - y) * np.log1p(-probs)))
    accuracy = float(np.mean(decisions == y))
    tp = int(np.sum(decisions & (y == 1)))
    fp = int(np.sum(decisions & (y == 0)))
    fn = int(np.sum(~decisions & (y == 1)))
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if tp + fp + fn else 1.0
    return nll, accuracy, f1


def split_trials(
    trials: Trials, run_seed: int, train_fraction: float
) -> tuple[Trials, Trials]:
    """Deterministic per-(subject, run) shuffle split; both halves nonempty."""
    shuffled = _shuffled(trials, run_seed, "split")
    n_train = int(round(len(shuffled) * train_fraction))
    n_train = max(1, min(len(shuffled) - 1, n_train))
    return shuffled.take(slice(n_train)), shuffled.take(slice(n_train, None))


def _shuffled(trials: Trials, run_seed: int, salt: str) -> Trials:
    """One subject's trials, stably sorted by trial_index, in a permutation
    drawn from (run, subject, salt)."""
    order = np.argsort(trials.trial_index, kind="stable")
    rng = np.random.default_rng(
        derive_seed(run_seed, trials.subject_id[order[0]], salt))
    return trials.take(order[rng.permutation(len(order))])


def _single_treatment(dataset: Trials, expected: Treatment | None = None) -> Treatment:
    treatments = set(dataset.treatment.tolist())
    if len(treatments) != 1:
        raise UsageError(
            "evaluate one treatment at a time; got "
            + ", ".join(sorted(t.value for t in treatments))
        )
    treatment = treatments.pop()
    if expected is not None and treatment != Treatment(expected):
        raise UsageError("dataset treatment does not match the requested treatment")
    return treatment


def _eligible_groups(dataset):
    groups = group_by_subject(dataset)
    eligible = {sid: trials for sid, trials in groups.items() if len(trials) >= 2}
    warnings = [f"subject {sid} excluded: fewer than 2 trials"
                for sid in groups if sid not in eligible]
    if not eligible:
        raise UsageError("no subject has at least 2 trials")
    return eligible, warnings


def _aggregate(cells, treatment, run_seeds, warnings) -> EvalReport:
    """cells: {(run_seed, subject_id): (nll, acc, f1)} -> report."""
    subjects = sorted({sid for _, sid in cells})
    run_means = []
    for run in run_seeds:
        triples = np.array([cells[(run, sid)] for sid in subjects])
        run_means.append(triples.mean(axis=0))
    overall = np.mean(run_means, axis=0)
    per_subject = tuple(
        SubjectMetrics(
            sid,
            *np.mean([cells[(run, sid)] for run in run_seeds], axis=0),
        )
        for sid in subjects
    )
    return EvalReport(
        treatment=treatment,
        nll=float(overall[0]),
        accuracy=float(overall[1]),
        f1=float(overall[2]),
        n_subjects=len(subjects),
        n_runs=len(run_seeds),
        per_subject=per_subject,
        warnings=tuple(warnings),
    )


def _score_framework(tests, posterior, params):
    """(NLL, accuracy, F1) of each subject's test trials at its parameters,
    every subject scored in one ``decision_probability`` call."""
    if not tests:
        return []
    probs = decision_probability(tests, posterior, params)
    cuts = np.cumsum([len(test) for test in tests])[:-1]
    return [metrics(part, test.final_decision)
            for part, test in zip(np.split(probs, cuts), tests)]


def evaluate_framework(
    dataset: Trials,
    posterior: PopulationPosterior,
    plan: SplitPlan = SplitPlan(),
    config: FitConfig = FitConfig(),
) -> EvalReport:
    """Split/fit/score every subject over every run seed and average.

    ``posterior`` both fits and scores; the deterministic ablation passes
    the one-member posterior at the population mean.
    """
    treatment = _single_treatment(dataset)
    eligible, warnings = _eligible_groups(dataset)
    splits = {(run, sid): split_trials(trials, run, plan.train_fraction)
              for run in plan.run_seeds for sid, trials in eligible.items()}
    params = dict.fromkeys(splits)
    if treatment != Treatment.INDEPENDENT:
        fits = fit_nudge_batch(
            [train for train, _ in splits.values()], posterior, treatment, config,
            seeds=[derive_seed(config.seed, run, sid) for run, sid in splits],
        )
        params = {key: fit.params for key, fit in zip(splits, fits)}
    cells = dict(zip(splits, _score_framework(
        [test for _, test in splits.values()], posterior, list(params.values()))))
    return _aggregate(cells, treatment, plan.run_seeds, warnings)


# -- per-subject logistic baseline ------------------------------------------


def baseline_features(trials: Trials) -> np.ndarray:
    """The supervised baseline's N x d design matrix: the features, then
    the treatment's payload columns."""
    payload = {
        Treatment.IMMEDIATE: ("ai_recommendation", "ai_confidence"),
        Treatment.DELAYED: ("initial_decision", "ai_recommendation"),
        Treatment.EXPLANATION: ("explanation_mask",),
    }.get(_single_treatment(trials), ())
    columns = [trials.features, *(getattr(trials, name) for name in payload)]
    return np.column_stack(columns).astype(float, copy=False)


def _fit_logistic(features, labels, l2):
    """L2-regularized logistic fit (intercept unpenalized).

    Returns a predict(features) -> probabilities callable.  ``l2`` must be
    positive: on separable data the unpenalized fit has no finite optimum.
    Single-class labels take the fit's limit, an infinite intercept, which
    predicts the constant class probability.
    """
    if not l2 > 0:
        raise ConfigurationError(f"the baseline l2 penalty must be positive, got {l2}")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if np.all(labels == labels[0]):
        weights, intercept = np.zeros(features.shape[1]), np.inf * (2 * labels[0] - 1)
    else:
        weights, intercept = _newton_logistic(features, labels, l2)

    def predict(rows):
        return sigmoid(np.asarray(rows) @ weights + intercept)

    return predict


def _newton_logistic(design, labels, l2):
    """(weights, intercept) minimizing the logistic NLL of 0/1 ``labels``
    plus l2 / 2 * |weights|^2, by Newton's method from zero.

    With mixed labels and l2 > 0 the objective is strictly convex, so each
    step solves the (d+1) x (d+1) Newton system.
    """
    design = np.hstack([design, np.ones((len(design), 1))])
    penalty = np.full(design.shape[1], float(l2))
    penalty[-1] = 0.0
    def terms(theta):
        probs = sigmoid(design @ theta)
        gradient = design.T @ (probs - labels) + penalty * theta
        hessian = (design.T * (probs * (1.0 - probs))) @ design
        hessian[np.diag_indices_from(hessian)] += penalty
        return gradient, hessian

    theta = newton(terms, np.zeros(design.shape[1]), _NEWTON_MAX_STEPS)
    return theta[:-1], theta[-1]


def baseline_logistic(
    dataset: Trials,
    treatment: Treatment,
    plan: SplitPlan = SplitPlan(),
    l2: float = 1.0,
) -> EvalReport:
    """Per-subject supervised logistic baseline on the same splits."""
    treatment = _single_treatment(dataset, treatment)
    eligible, warnings = _eligible_groups(dataset)
    cells = {}
    for run in plan.run_seeds:
        for sid, trials in eligible.items():
            train, test = split_trials(trials, run, plan.train_fraction)
            cells[(run, sid)] = _score_baseline(train, test, l2)
    return _aggregate(cells, treatment, plan.run_seeds, warnings)


def _score_baseline(train, test, l2):
    """Fit the logistic baseline on ``train``; (NLL, accuracy, F1) on ``test``."""
    predict = _fit_logistic(baseline_features(train), train.final_decision, l2)
    return metrics(predict(baseline_features(test)), test.final_decision)


def learning_curve(
    dataset: Trials,
    treatment: Treatment,
    posterior: PopulationPosterior,
    train_sizes: list[int],
    plan: SplitPlan = SplitPlan(),
    config: FitConfig = FitConfig(),
    baseline_l2: float = 1.0,
) -> tuple[list[CurvePoint], list[str]]:
    """Test metrics of framework and baseline versus training-set size.

    Per (subject, run) one permutation is drawn; the first ``size`` trials
    train and the remainder tests, so train sets are nested across sizes.
    Sizes a subject cannot support are skipped with a warning.
    """
    treatment = _single_treatment(dataset, treatment)
    eligible, warnings = _eligible_groups(dataset)
    # every (size, run seed, subject) split first, so one batch fits them all
    splits: list[tuple[int, int, list]] = []
    for size in sorted(set(int(s) for s in train_sizes)):
        if size < 1:
            raise UsageError("train sizes must be positive")
        usable = {sid: t for sid, t in eligible.items() if len(t) > size}
        skipped = len(eligible) - len(usable)
        if skipped:
            warnings.append(
                f"train size {size}: skipped {skipped} subject(s) with too few trials"
            )
        if not usable:
            warnings.append(f"train size {size}: skipped entirely")
            continue
        for run in plan.run_seeds:
            cell = []
            splits.append((size, run, cell))
            for sid, trials in usable.items():
                shuffled = _shuffled(trials, run, "curve")
                cell.append((derive_seed(config.seed, run, sid, size),
                             shuffled.take(slice(size)),
                             shuffled.take(slice(size, None))))
    jobs = [job for _, _, cell in splits for job in cell]
    fits = fit_nudge_batch([train for _, train, _ in jobs], posterior,
                           treatment, config, seeds=[seed for seed, _, _ in jobs])
    scores = iter(_score_framework([test for _, _, test in jobs], posterior,
                                   [fit.params for fit in fits]))
    rows: list[CurvePoint] = []
    for size, run, cell in splits:
        frame_cells = [next(scores) for _ in cell]
        base_cells = [_score_baseline(train, test, baseline_l2)
                      for _, train, test in cell]
        for method, cells in (("framework", frame_cells),
                              ("logistic_baseline", base_cells)):
            mean = np.mean(cells, axis=0)
            rows.append(CurvePoint(size=size, method=method, run_seed=run,
                                   nll=float(mean[0]), f1=float(mean[2])))
    return rows, warnings
