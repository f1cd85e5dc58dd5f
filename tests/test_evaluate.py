"""Metrics, split protocol, baseline, and learning curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgelab import (
    BehaviorRecord,
    ConfigurationError,
    FitConfig,
    NudgeParams,
    PopulationPosterior,
    SignedSharedSignVector,
    SplitPlan,
    SurrogateAI,
    SyntheticSubject,
    Treatment,
    UsageError,
    WeightVector,
    baseline_logistic,
    decision_probability,
    evaluate_framework,
    generate_behavior,
    learning_curve,
    metrics,
    split_trials,
    uniform_tasks,
)
from nudgelab.evaluate import (
    UNINFORMATIVE_NLL,
    _fit_logistic,
    _newton_logistic,
    baseline_features,
)


class TestMetrics:
    def test_perfect_confident_predictions(self):
        preds = [(1.0 - 1e-6, 1), (1e-6, 0), (1.0 - 1e-6, 1)]
        nll, acc, f1 = metrics(preds, [1, 0, 1])
        assert nll == pytest.approx(1e-6, rel=1e-3)
        assert acc == 1.0
        assert f1 == 1.0

    def test_uninformative_is_log_two(self):
        preds = [(0.5, 1)] * 7
        truths = [1, 0, 1, 1, 0, 0, 1]
        nll, _, _ = metrics(preds, truths)
        assert nll == pytest.approx(UNINFORMATIVE_NLL, abs=1e-12)

    def test_hand_enumerated_f1(self):
        preds = [(0.9, 1), (0.1, 0), (0.9, 1)]
        truths = [1, 1, 0]
        nll, acc, f1 = metrics(preds, truths)
        assert acc == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.5)

    def test_f1_conventions(self):
        # no positives anywhere -> 1; positive truths, no positive preds -> 0
        assert metrics([(0.1, 0)] * 3, [0, 0, 0])[2] == 1.0
        assert metrics([(0.1, 0)] * 3, [1, 0, 1])[2] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            metrics([(0.5, 1)], [1, 0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        preds = [(float(p), int(p >= 0.5)) for p in rng.random(40)]
        truths = [int(t) for t in rng.integers(0, 2, 40)]
        base = metrics(preds, truths)
        order = rng.permutation(40)
        shuffled = metrics([preds[i] for i in order], [truths[i] for i in order])
        assert base == pytest.approx(shuffled, abs=1e-15)


class TestSplit:
    def test_deterministic_and_disjoint(self):
        records = _records_for_subject("a", 12)
        t1, e1 = split_trials(records, run_seed=4, train_fraction=0.5)
        t2, e2 = split_trials(records, run_seed=4, train_fraction=0.5)
        assert [r.trial_index for r in t1] == [r.trial_index for r in t2]
        assert len(t1) == 6 and len(e1) == 6
        assert {r.trial_index for r in t1} | {r.trial_index for r in e1} == set(range(12))

    def test_both_halves_nonempty_for_tiny_subjects(self):
        records = _records_for_subject("a", 2)
        train, test = split_trials(records, run_seed=0, train_fraction=0.5)
        assert len(train) == 1 and len(test) == 1


def _records_for_subject(sid, n_trials, treatment=Treatment.IMMEDIATE,
                         tau=0.8, seed=None, temperature=1.0):
    mean = np.array([1.0, -0.8, 0.6, -0.3])
    params = None
    if treatment != Treatment.INDEPENDENT:
        params = NudgeParams.for_immediate(
            SignedSharedSignVector(tau, np.array([0.4, 0.3, 0.5])))
    subject = SyntheticSubject(
        subject_id=sid, true_weights=WeightVector(mean[:-1], mean[-1]),
        true_params=params, treatment=treatment,
        noise_temperature=temperature, crt_score=1,
    )
    ai = SurrogateAI(WeightVector([1.2, 0.8, -1.0], bias=-0.5), top_k=2)
    task_seed = seed if seed is not None else abs(hash(sid)) % 10000
    tasks = uniform_tasks(n_trials, 3, seed=task_seed)
    return generate_behavior(subject, tasks, ai, seed=task_seed + 1)


def _posterior():
    mean = np.array([1.0, -0.8, 0.6, -0.3])
    return PopulationPosterior.from_moments(mean, np.full(4, 0.15), 300, seed=10)


FAST_FIT = FitConfig(iterations=150, restarts=2, seed=0)


class TestEvaluateFramework:
    def test_deterministic_given_plan(self):
        data = (_records_for_subject("a", 10, seed=1)
                + _records_for_subject("b", 10, seed=2))
        plan = SplitPlan(run_seeds=(3,))
        r1 = evaluate_framework(data, _posterior(), plan, FAST_FIT)
        r2 = evaluate_framework(data, _posterior(), plan, FAST_FIT)
        assert r1.nll == r2.nll and r1.f1 == r2.f1

    def test_repeated_seed_equals_single(self):
        data = _records_for_subject("a", 10, seed=1)
        single = evaluate_framework(data, _posterior(), SplitPlan(run_seeds=(3,)),
                                    FAST_FIT)
        double = evaluate_framework(data, _posterior(), SplitPlan(run_seeds=(3, 3)),
                                    FAST_FIT)
        assert single.nll == double.nll
        assert single.accuracy == double.accuracy

    def test_small_subjects_excluded_with_warning(self):
        data = (_records_for_subject("a", 10, seed=1)
                + _records_for_subject("tiny", 1, seed=2))
        report = evaluate_framework(data, _posterior(), SplitPlan(run_seeds=(0,)),
                                    FAST_FIT)
        assert report.n_subjects == 1
        assert any("tiny" in w for w in report.warnings)

    def test_mixed_treatments_rejected(self):
        data = (_records_for_subject("a", 4, seed=1)
                + _records_for_subject("b", 4, treatment=Treatment.INDEPENDENT,
                                       seed=2))
        with pytest.raises(UsageError):
            evaluate_framework(data, _posterior(), SplitPlan(run_seeds=(0,)),
                               FAST_FIT)

    def test_zero_nudge_population_close_to_independent_model(self):
        # subjects with no true nudge: the fitted framework should score
        # close to the unnudged ensemble on held-out trials
        posterior = _posterior()
        data = []
        for i in range(6):
            data.extend(_records_for_subject(f"s{i}", 30, tau=0.0, seed=100 + i))
        plan = SplitPlan(run_seeds=(0, 1))
        report = evaluate_framework(data, posterior, plan,
                                    FitConfig(iterations=400, restarts=2, seed=0,
                                              l2_penalty=0.05))
        independent_nlls = []
        for i in range(6):
            recs = [r for r in data if r.subject_id == f"s{i}"]
            probs = decision_probability(
                [recs], posterior,
                [NudgeParams.for_immediate(SignedSharedSignVector.zero(3))])
            preds = [(p, int(p >= 0.5)) for p in probs]
            independent_nlls.append(
                metrics(preds, [r.final_decision for r in recs])[0])
        assert abs(report.nll - float(np.mean(independent_nlls))) <= 0.05


class TestLogisticBaseline:
    def test_separable_data_interpolates_training(self):
        rows = np.array([[0.1], [0.2], [0.8], [0.9]])
        labels = np.array([0, 0, 1, 1])
        predict = _fit_logistic(rows, labels, l2=0.1)
        decisions = (predict(rows) >= 0.5).astype(int)
        assert np.array_equal(decisions, labels)

    def test_constant_features_give_base_rate(self):
        rows = np.tile([[0.4, 0.6]], (10, 1))
        labels = np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 0])
        predict = _fit_logistic(rows, labels, l2=1.0)
        assert np.allclose(predict(rows), labels.mean(), atol=1e-3)

    def test_single_class_shortcut(self):
        rows = np.array([[0.1], [0.9]])
        predict = _fit_logistic(rows, np.array([1, 1]), l2=1.0)
        assert np.array_equal(predict(rows), [1.0, 1.0])

    @settings(max_examples=80, deadline=None)
    @given(
        treatment=st.sampled_from(list(Treatment)),
        n_features=st.integers(1, 6),
        n_rows=st.integers(2, 30),
        seed=st.integers(0, 2**16),
        l2=st.floats(0.1, 10.0),
    )
    def test_fit_is_stationary(self, treatment, n_features, n_rows, seed, l2):
        # the penalized optimum: X^T (p - y) + l2 * w = 0, with X carrying
        # the unpenalized intercept column
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n_rows)
        labels[:2] = [0, 1]
        rows = np.stack([baseline_features(BehaviorRecord(
            subject_id="s", treatment=treatment, trial_index=i,
            features=rng.random(n_features), final_decision=int(label),
            ai_recommendation=None if treatment in (
                Treatment.INDEPENDENT, Treatment.EXPLANATION)
            else int(rng.integers(2)),
            ai_confidence=float(rng.uniform(0.5, 1.0))
            if treatment == Treatment.IMMEDIATE else None,
            initial_decision=int(rng.integers(2))
            if treatment == Treatment.DELAYED else None,
            explanation_mask=rng.integers(0, 2, n_features)
            if treatment == Treatment.EXPLANATION else None,
        )) for i, label in enumerate(labels)])
        weights, _ = _newton_logistic(rows, labels, l2)
        residual = _fit_logistic(rows, labels, l2)(rows) - labels
        assert np.abs(rows.T @ residual + l2 * weights).max() <= 1e-8
        assert abs(residual.sum()) <= 1e-8

    @pytest.mark.parametrize("l2", [0.0, -1.0])
    def test_penalty_must_be_positive(self, l2):
        with pytest.raises(ConfigurationError):
            _fit_logistic(np.array([[0.1], [0.9]]), np.array([0, 1]), l2=l2)

    def test_feature_widths_per_treatment(self):
        imm = _records_for_subject("a", 2, seed=1)[0]
        assert baseline_features(imm).size == 3 + 2
        exp_rec = _records_for_subject(
            "b", 2, treatment=Treatment.INDEPENDENT, seed=2)[0]
        assert baseline_features(exp_rec).size == 3

    def test_explanation_width_is_two_n(self):
        from nudgelab import BehaviorRecord
        rec = BehaviorRecord(subject_id="x", treatment=Treatment.EXPLANATION,
                             trial_index=0, features=[0.2, 0.4, 0.6],
                             final_decision=1, explanation_mask=[1, 0, 1])
        assert baseline_features(rec).size == 6

    def test_report_structure(self):
        data = (_records_for_subject("a", 10, seed=1)
                + _records_for_subject("b", 10, seed=2))
        report = baseline_logistic(data, Treatment.IMMEDIATE,
                                   SplitPlan(run_seeds=(0, 1)))
        assert report.n_subjects == 2
        assert report.n_runs == 2
        assert len(report.per_subject) == 2
        assert 0.0 <= report.accuracy <= 1.0


class TestLearningCurve:
    def test_rows_and_skip_warning(self):
        data = (_records_for_subject("a", 12, seed=1)
                + _records_for_subject("b", 12, seed=2))
        rows, warnings = learning_curve(
            data, Treatment.IMMEDIATE, _posterior(), [4, 30],
            SplitPlan(run_seeds=(0,)), FAST_FIT,
        )
        assert {r.size for r in rows} == {4}
        assert {r.method for r in rows} == {"framework", "logistic_baseline"}
        assert any("30" in w for w in warnings)

    def test_deterministic(self):
        data = _records_for_subject("a", 12, seed=1)
        rows1, _ = learning_curve(data, Treatment.IMMEDIATE, _posterior(), [5],
                                  SplitPlan(run_seeds=(1,)), FAST_FIT)
        rows2, _ = learning_curve(data, Treatment.IMMEDIATE, _posterior(), [5],
                                  SplitPlan(run_seeds=(1,)), FAST_FIT)
        assert rows1 == rows2
