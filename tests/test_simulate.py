"""Surrogate AI and synthetic behavior generation."""

import numpy as np
import pytest
from scipy.special import expit, logit

from nudgelab import (
    NudgeParams,
    SignedSharedSignVector,
    SurrogateAI,
    SyntheticSubject,
    TaskInstance,
    Treatment,
    WeightVector,
    ai_explain,
    ai_recommend,
    generate_behavior,
    logistic_response,
    uniform_tasks,
)
from nudgelab.records import export_csv, ingest


class TestAiRecommend:
    def test_uninformative_ai(self):
        ai = SurrogateAI(WeightVector([0.0, 0.0]), top_k=1)
        rec, conf = ai_recommend(ai, TaskInstance([0.3, 0.8]))
        assert conf == 0.5
        assert rec == 1  # probability exactly one half -> decision 1

    def test_confident_recommendation(self):
        ai = SurrogateAI(WeightVector([2.0, 0.0]), top_k=1)
        rec, conf = ai_recommend(ai, TaskInstance([1.0, 0.0]))
        assert rec == 1
        assert conf == pytest.approx(float(expit(2.0)), abs=1e-12)

    def test_confidence_symmetry_below_half(self):
        # engineered so the model output is exactly 0.3
        ai = SurrogateAI(WeightVector([float(logit(0.3)), 0.0]), top_k=1)
        rec, conf = ai_recommend(ai, TaskInstance([1.0, 0.0]))
        assert rec == 0
        assert conf == pytest.approx(0.7, abs=1e-12)


class TestAiExplain:
    def test_mask_saturates(self):
        ai = SurrogateAI(WeightVector([1.0, -1.0]), top_k=2)
        assert np.array_equal(ai_explain(ai, TaskInstance([0.3, 0.9])), [1, 1])

    def test_contribution_ranking(self):
        ai = SurrogateAI(WeightVector([3.0, 0.1, 0.1]), top_k=1)
        mask = ai_explain(ai, TaskInstance([1.0, 1.0, 0.0]))
        assert np.array_equal(mask, [1, 0, 0])

    def test_tie_break_lowest_index(self):
        ai = SurrogateAI(WeightVector([1.0, 1.0, 0.5]), top_k=1)
        mask = ai_explain(ai, TaskInstance([1.0, 1.0, 0.5]))
        assert np.array_equal(mask, [1, 0, 0])

    def test_exactly_top_k_ones(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            ai = SurrogateAI(WeightVector(rng.normal(0, 2, n)), top_k=k)
            mask = ai_explain(ai, TaskInstance(rng.random(n)))
            assert mask.sum() == k


def _subject(treatment, params, temperature=1.0):
    return SyntheticSubject(
        subject_id="syn0",
        true_weights=WeightVector([1.5, -1.0, 0.5], bias=-0.2),
        true_params=params,
        treatment=treatment,
        noise_temperature=temperature,
        crt_score=1,
    )


class TestGenerateBehavior:
    def setup_method(self):
        self.ai = SurrogateAI(WeightVector([1.0, 1.0, -0.5], bias=-0.4), top_k=2)
        self.tasks = uniform_tasks(20, 3, seed=42)

    def test_fixed_seed_reproducible(self):
        sub = _subject(Treatment.IMMEDIATE,
                       NudgeParams.for_immediate(
                           SignedSharedSignVector(1.0, np.array([0.5, 0.5, 0.5]))))
        a = generate_behavior(sub, self.tasks, self.ai, seed=5)
        b = generate_behavior(sub, self.tasks, self.ai, seed=5)
        assert np.array_equal(a.final_decision, b.final_decision)
        assert np.array_equal(a.ai_recommendation, b.ai_recommendation)
        assert np.array_equal(a.ai_confidence, b.ai_confidence)
        assert np.array_equal(a.features, b.features)

    def test_noiseless_zero_nudge_matches_independent_thresholds(self):
        sub = _subject(Treatment.IMMEDIATE,
                       NudgeParams.for_immediate(SignedSharedSignVector.zero(3)),
                       temperature=0.0)
        records = generate_behavior(sub, self.tasks, self.ai, seed=5)
        for task, final in zip(self.tasks, records.final_decision):
            expected = int(logistic_response(task, sub.true_weights) >= 0.5)
            assert final == expected

    def test_dominant_positive_nudge_follows_recommendation(self):
        # shift of +-30 swamps every base logit, so the final decision
        # equals the recommendation whenever any feature is highlighted
        sub = _subject(Treatment.IMMEDIATE,
                       NudgeParams.for_immediate(
                           SignedSharedSignVector(60.0, np.ones(3))),
                       temperature=0.0)
        records = generate_behavior(sub, self.tasks, self.ai, seed=5)
        assert np.array_equal(records.final_decision, records.ai_recommendation)

    def test_payload_consistency_all_treatments(self):
        deltas = SignedSharedSignVector(0.5, np.array([0.2, 0.2, 0.2]))
        cases = [
            (Treatment.INDEPENDENT, None),
            (Treatment.IMMEDIATE, NudgeParams.for_immediate(deltas)),
            (Treatment.DELAYED, NudgeParams.for_delayed(deltas, deltas)),
            (Treatment.EXPLANATION, NudgeParams.for_explanation(0.7)),
        ]
        for treatment, params in cases:
            sub = _subject(treatment, params)
            records = generate_behavior(sub, self.tasks, self.ai, seed=9)
            assert np.all(records.treatment == treatment)
            if treatment == Treatment.IMMEDIATE:
                assert np.all((0.5 <= records.ai_confidence)
                              & (records.ai_confidence <= 1.0))
            if treatment == Treatment.DELAYED:
                assert np.isin(records.initial_decision, (0, 1)).all()
            if treatment == Treatment.EXPLANATION:
                assert np.all(records.explanation_mask.sum(axis=1) == self.ai.top_k)

    def test_delayed_initial_decision_is_unnudged(self):
        big = SignedSharedSignVector(50.0, np.ones(3))
        sub = _subject(Treatment.DELAYED, NudgeParams.for_delayed(big, big),
                       temperature=0.0)
        records = generate_behavior(sub, self.tasks, self.ai, seed=11)
        for task, initial in zip(self.tasks, records.initial_decision):
            expected = int(logistic_response(task, sub.true_weights) >= 0.5)
            assert initial == expected

    def test_export_round_trip(self, tmp_path):
        sub = _subject(Treatment.DELAYED,
                       NudgeParams.for_delayed(
                           SignedSharedSignVector(0.5, np.array([0.2, 0.3, 0.1])),
                           SignedSharedSignVector(-0.5, np.array([0.4, 0.1, 0.2]))))
        records = generate_behavior(sub, self.tasks, self.ai, seed=13)
        path = tmp_path / "sim.csv"
        export_csv(records, path)
        loaded = ingest(path)
        assert len(loaded) == len(records)
        assert np.array_equal(records.final_decision, loaded.final_decision)
        assert np.array_equal(records.initial_decision, loaded.initial_decision)
        assert np.array_equal(records.features, loaded.features)


class TestSubjectValidation:
    def test_params_must_match_treatment(self):
        with pytest.raises(Exception):
            SyntheticSubject("x", WeightVector([1.0]), None, Treatment.IMMEDIATE)
        with pytest.raises(Exception):
            SyntheticSubject("x", WeightVector([1.0]),
                             NudgeParams.for_explanation(0.5), Treatment.INDEPENDENT)
