"""Nudge predictors: the ensemble response kernel, shifts, filtering,
attention mixtures, batched scoring."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import per_record
from nudgelab import (
    Branch,
    ConfigurationError,
    NudgeParams,
    PopulationPosterior,
    SignedSharedSignVector,
    Treatment,
    UsageError,
    decision_probability,
)
from nudgelab import nudge
from nudgelab.nudge import EnsembleResponse

from conftest import (
    one_trial,
    random_posterior,
    score_rows,
    singleton_posterior,
    trials_of,
    unassisted,
)


def zero_delta(n):
    return SignedSharedSignVector.zero(n)


class TestSignedSharedSignVector:
    def test_realized_shares_sign(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            vec = SignedSharedSignVector(
                scale=float(rng.normal(0, 2)), magnitudes=rng.uniform(0, 2, n)
            )
            delta = vec.realized
            outer = np.outer(delta, delta)
            assert np.all(outer >= 0.0)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ConfigurationError):
            SignedSharedSignVector(scale=1.0, magnitudes=np.array([0.5, -0.1]))

    @pytest.mark.parametrize("scale, magnitudes", [
        (float("inf"), [0.5]), (1e308, [2.0]), (1e300, [0.0, 1e300]),
        (1.0, [1e200, 1e200]),
    ])
    def test_non_finite_realization_or_norm_rejected(self, scale, magnitudes):
        with pytest.raises(ConfigurationError, match="must be finite"):
            SignedSharedSignVector(scale, np.array(magnitudes))

    def test_sign_follows_scale(self):
        assert SignedSharedSignVector(2.0, np.array([0.6, 0.8])).sign == 1
        assert SignedSharedSignVector(-2.0, np.array([0.6, 0.8])).sign == -1
        assert SignedSharedSignVector(0.0, np.zeros(2)).sign == 1


class TestNudgeParams:
    def test_exactly_one_treatment(self):
        # an assisted treatment, and one value per branch of it
        with pytest.raises(ConfigurationError):
            NudgeParams(Treatment.IMMEDIATE, ())
        with pytest.raises(ConfigurationError):
            NudgeParams(Treatment.IMMEDIATE, (zero_delta(2), 0.5))
        with pytest.raises(ConfigurationError):
            NudgeParams(Treatment.DELAYED, (zero_delta(2),))  # missing contra
        with pytest.raises(ConfigurationError):
            NudgeParams(Treatment.INDEPENDENT, ())

    def test_values_follow_the_branch_table(self):
        affirm, contra = zero_delta(2), SignedSharedSignVector(-1.0, np.ones(2))
        params = NudgeParams("delayed", [affirm, contra])
        assert params.treatment == Treatment.DELAYED
        assert params.values == NudgeParams.for_delayed(affirm, contra).values
        assert params[Branch.AFFIRM] is affirm and params["contra"] is contra
        with pytest.raises(UsageError):
            params[Branch.DIRECT]

    def test_delta_exp_range(self):
        with pytest.raises(ConfigurationError):
            NudgeParams.for_explanation(1.2)

    def test_treatment_inference(self):
        assert NudgeParams.for_immediate(zero_delta(2)).treatment == Treatment.IMMEDIATE
        assert NudgeParams.for_delayed(
            zero_delta(2), zero_delta(2)
        ).treatment == Treatment.DELAYED
        assert NudgeParams.for_explanation(0.5).treatment == Treatment.EXPLANATION


def immediate_params(scale, magnitudes):
    return NudgeParams.for_immediate(SignedSharedSignVector(scale, magnitudes))


class TestPredictImmediate:
    def test_zero_nudge_is_identity_bitexact(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            post = random_posterior(rng, n, size=16)
            features = rng.random((5, n))
            p0 = unassisted(post, features)
            p1 = score_rows(post, Treatment.IMMEDIATE,
                            NudgeParams.for_immediate(zero_delta(n)), features,
                            ai_recommendation=rng.integers(0, 2, 5),
                            ai_confidence=rng.uniform(0.5, 1.0, 5))
            assert np.array_equal(p1, p0)

    def test_single_member_hand_values(self):
        post = singleton_posterior([2.0, -1.0])
        features = [[0.5, 0.5], [0.5, 0.5]]
        # recommendation 1: (2+1)*0.5 + (-1+1)*0.5 = 1.5; recommendation 0
        # flips the shift: (2-1)*0.5 + (-1-1)*0.5 = -0.5
        p = score_rows(post, Treatment.IMMEDIATE, immediate_params(1.0, [1.0, 1.0]),
                       features, ai_recommendation=[1, 0], ai_confidence=[1.0, 1.0])
        assert p == pytest.approx(expit([1.5, -0.5]), abs=1e-12)
        assert list(p >= 0.5) == [True, False]

    def test_confidence_range_enforced(self):
        post = singleton_posterior([2.0, -1.0])
        for confidence in (0.4, 1.1):
            with pytest.raises(ConfigurationError, match="ai_conf"):
                score_rows(post, Treatment.IMMEDIATE,
                           NudgeParams.for_immediate(zero_delta(2)), [[0.5, 0.5]],
                           ai_recommendation=[1], ai_confidence=[confidence])

    def test_confidence_monotonicity(self):
        # positive scale, recommendation 1 -> nondecreasing in confidence;
        # recommendation 0 -> nonincreasing; 200 random configurations
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            post = random_posterior(rng, n, size=12)
            features = np.repeat(rng.random((1, n)), 2, axis=0)
            params = immediate_params(float(rng.uniform(0.1, 2.0)),
                                      rng.uniform(0, 1.5, n))
            c_low, c_high = sorted(rng.uniform(0.5, 1.0, 2))
            for rec, cmp in ((1, np.greater_equal), (0, np.less_equal)):
                p_low, p_high = score_rows(post, Treatment.IMMEDIATE, params,
                                           features, ai_recommendation=[rec, rec],
                                           ai_confidence=[c_low, c_high])
                assert cmp(p_high, p_low)

    def test_recommendation_symmetry(self):
        # flipping the recommendation equals negating the scale, bit-exactly
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            post = random_posterior(rng, n, size=8)
            features = rng.random((4, n))
            conf = rng.uniform(0.5, 1.0, 4)
            scale, magnitudes = float(rng.normal(0, 1.5)), rng.uniform(0, 1.5, n)
            p_rec0, p_rec1_neg = (
                score_rows(post, Treatment.IMMEDIATE,
                           immediate_params(sign * scale, magnitudes), features,
                           ai_recommendation=np.full(4, rec), ai_confidence=conf)
                for rec, sign in ((0, 1.0), (1, -1.0)))
            assert np.array_equal(p_rec0, p_rec1_neg)


class TestPredictDelayed:
    def test_zero_nudge_equals_filtered_mean(self, two_member_posterior):
        # initial decision 1 on x = (1, 0) keeps only member (1, 0)
        features = [[1.0, 0.0]]
        kept = singleton_posterior([1.0, 0.0])
        p = score_rows(two_member_posterior, Treatment.DELAYED,
                       NudgeParams.for_delayed(zero_delta(2), zero_delta(2)), features,
                       ai_recommendation=[1], initial_decision=[1])
        assert np.array_equal(p, unassisted(kept, features))

    def test_affirm_branch_hand_value(self, two_member_posterior):
        affirm = SignedSharedSignVector(1.0, [1.0, 0.0])
        p = score_rows(two_member_posterior, Treatment.DELAYED,
                       NudgeParams.for_delayed(affirm, zero_delta(2)), [[1.0, 0.0]],
                       ai_recommendation=[1], initial_decision=[1])
        assert p[0] == pytest.approx(float(expit(2.0)), abs=1e-12)
        assert p[0] >= 0.5

    def test_contra_branch_and_tie_rule(self, two_member_posterior):
        contra = SignedSharedSignVector(1.0, [1.0, 0.0])
        # initial 1 keeps member (1,0); recommendation 0 contradicts:
        # shift = -1 * 1 -> logit 0 -> probability one half -> decision 1
        p = score_rows(two_member_posterior, Treatment.DELAYED,
                       NudgeParams.for_delayed(zero_delta(2), contra), [[1.0, 0.0]],
                       ai_recommendation=[0], initial_decision=[1])
        assert p[0] == 0.5
        assert p[0] >= 0.5

    def test_branch_exclusivity(self):
        # only the matching branch's vector can influence the output
        rng = np.random.default_rng(10)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            post = random_posterior(rng, n, size=10)
            features = rng.random((6, n))
            rec, initial = rng.integers(0, 2, 6), rng.integers(0, 2, 6)
            active, other_a, other_b = (
                SignedSharedSignVector(float(rng.normal(0, 1)), rng.uniform(0, 1, n))
                for _ in range(3))
            p1, p2 = (score_rows(post, Treatment.DELAYED,
                                 [NudgeParams.for_delayed(active, other) if match
                                  else NudgeParams.for_delayed(other, active)
                                  for match in rec == initial],
                                 features, ai_recommendation=rec,
                                 initial_decision=initial)
                      for other in (other_a, other_b))
            assert np.array_equal(p1, p2)


class TestPredictExplanation:
    def test_full_mask_full_attention_is_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            post = random_posterior(rng, n, size=16)
            features = rng.random((5, n))
            p0 = unassisted(post, features)
            p1 = score_rows(post, Treatment.EXPLANATION,
                            NudgeParams.for_explanation(1.0), features,
                            explanation_mask=np.ones((5, n), dtype=int))
            assert np.array_equal(p1, p0)

    def test_equal_mixture(self):
        post = singleton_posterior([1.2, -0.7])
        focused = float(expit(1.2 * 0.8))
        ignored = float(expit(-0.7 * 0.4))
        p = score_rows(post, Treatment.EXPLANATION, NudgeParams.for_explanation(0.5),
                       [[0.8, 0.4]], explanation_mask=[[1, 0]])
        assert p[0] == pytest.approx(0.5 * (focused + ignored), abs=1e-12)

    def test_hand_value(self):
        post = singleton_posterior([1.0, 1.0])
        p = score_rows(post, Treatment.EXPLANATION, NudgeParams.for_explanation(0.8),
                       [[1.0, 0.5]], explanation_mask=[[1, 0]])
        expected = 0.8 * float(expit(1.0)) + 0.2 * float(expit(0.5))
        assert p[0] == pytest.approx(expected, abs=1e-12)
        assert p[0] >= 0.5

    def test_mixture_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            post = random_posterior(rng, n, size=12)
            features = rng.random((1, n))
            mask = rng.integers(0, 2, (1, n))
            lo, hi = (score_rows(post, Treatment.EXPLANATION,
                                 NudgeParams.for_explanation(a), features,
                                 explanation_mask=mask)[0]
                      for a in (0.0, 1.0))
            attention = rng.uniform(0, 1, 5)
            p = score_rows(post, Treatment.EXPLANATION,
                           [NudgeParams.for_explanation(float(a)) for a in attention],
                           np.repeat(features, 5, axis=0),
                           explanation_mask=np.repeat(mask, 5, axis=0))
            assert np.all(min(lo, hi) - 1e-12 <= p)
            assert np.all(p <= max(lo, hi) + 1e-12)

    def test_attention_range_enforced(self):
        post = singleton_posterior([1.0, 1.0])
        with pytest.raises(ConfigurationError):
            score_rows(post, Treatment.EXPLANATION, NudgeParams.for_explanation(1.5),
                       [[0.5, 0.5]], explanation_mask=[[1, 0]])

    def test_mask_length_enforced(self):
        post = singleton_posterior([1.0, 1.0])
        with pytest.raises(ConfigurationError):
            score_rows(post, Treatment.EXPLANATION, NudgeParams.for_explanation(0.5),
                       [[0.5, 0.5]], explanation_mask=[[1, 0, 1]])


def _record(treatment, features, rng, index=0, subject="s1"):
    """The fields of a trial of ``treatment`` with a random payload."""
    n = len(features)
    payload = {
        Treatment.INDEPENDENT: {},
        Treatment.IMMEDIATE: dict(ai_recommendation=int(rng.integers(2)),
                                  ai_confidence=float(rng.uniform(0.5, 1.0))),
        Treatment.DELAYED: dict(ai_recommendation=int(rng.integers(2)),
                                initial_decision=int(rng.integers(2))),
        Treatment.EXPLANATION: dict(explanation_mask=rng.integers(0, 2, n)),
    }[treatment]
    return dict(subject_id=subject, treatment=treatment,
                trial_index=index, features=features,
                final_decision=int(rng.integers(2)), **payload)


def _random_params(treatment, n, rng, scale=1.5):
    def vector():
        return SignedSharedSignVector(float(rng.normal(0, scale)),
                                      rng.uniform(0, 1.5, n))

    return {Treatment.INDEPENDENT: lambda: None,
            Treatment.IMMEDIATE: lambda: NudgeParams.for_immediate(vector()),
            Treatment.DELAYED: lambda: NudgeParams.for_delayed(vector(), vector()),
            Treatment.EXPLANATION: lambda: NudgeParams.for_explanation(
                float(rng.uniform(0, 1)))}[treatment]()


class TestDecisionProbability:
    def test_independent_dispatch(self):
        rng = np.random.default_rng(16)
        post = random_posterior(rng, 3, size=10)
        rec = one_trial(subject_id="s1", treatment=Treatment.INDEPENDENT,
                        trial_index=0, features=[0.2, 0.4, 0.9],
                        final_decision=1)
        expected = unassisted(post, rec.features)
        assert np.array_equal(decision_probability([rec], post, [None]), expected)

    def test_immediate_zero_nudge_matches_independent(self):
        rng = np.random.default_rng(18)
        post = random_posterior(rng, 2, size=10)
        rec = one_trial(subject_id="s1", treatment=Treatment.IMMEDIATE,
                        trial_index=0, features=[0.2, 0.4],
                        final_decision=0, ai_recommendation=1,
                        ai_confidence=0.9)
        params = NudgeParams.for_immediate(zero_delta(2))
        assert np.array_equal(decision_probability([rec], post, [params]),
                              unassisted(post, rec.features))

    def test_params_mismatch_raises(self):
        rng = np.random.default_rng(20)
        post = random_posterior(rng, 2, size=5)
        rec = one_trial(subject_id="s1", treatment=Treatment.IMMEDIATE,
                        trial_index=0, features=[0.2, 0.4],
                        final_decision=0, ai_recommendation=1,
                        ai_confidence=0.9)
        with pytest.raises(UsageError):
            decision_probability([rec], post, [NudgeParams.for_explanation(0.5)])
        with pytest.raises(UsageError):
            decision_probability([rec], post, [None])
        with pytest.raises(UsageError):
            decision_probability([rec, rec], post,
                                 [NudgeParams.for_immediate(zero_delta(2))])

    def test_degenerate_probability_clipped(self):
        post = singleton_posterior([80.0, 80.0], bias=0.0)
        rec = one_trial(subject_id="s1", treatment=Treatment.INDEPENDENT,
                        trial_index=0, features=[1.0, 1.0], final_decision=1)
        p = decision_probability([rec], post, [None])
        assert p[0] == 1.0 - 1e-6

    @pytest.mark.parametrize("treatment", list(Treatment), ids=lambda t: t.value)
    def test_batches_match_the_per_record_oracle(self, treatment):
        # K subjects scored in one call: each trial within 1e-12 of the old
        # per-record predictor, and each subject's probabilities the same
        # bits as scoring it alone
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            post = random_posterior(rng, n, size=int(rng.choice([1, 30, 300])))
            trial_sets = [trials_of([_record(treatment, rng.random(n), rng, i, f"s{k}")
                                     for i in range(int(rng.integers(1, 6)))])
                          for k in range(int(rng.integers(1, 4)))]
            params = [_random_params(treatment, n, rng) for _ in trial_sets]
            batch = decision_probability(trial_sets, post, params, clip_eps=0.0)
            oracle = [per_record.decision_probability(trials, row, post, p)
                      for trials, p in zip(trial_sets, params)
                      for row in range(len(trials))]
            assert batch == pytest.approx(oracle, abs=1e-12)
            alone = np.concatenate([decision_probability([trials], post, [p])
                                    for trials, p in zip(trial_sets, params)])
            assert np.array_equal(np.clip(batch, 1e-6, 1 - 1e-6), alone)

    @settings(max_examples=60, deadline=None)
    @given(treatment=st.sampled_from(list(Treatment)), seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 6), members=st.integers(1, 50),
           logit_scale=st.floats(0.0, 200.0), scale=st.floats(0.0, 100.0),
           clip_eps=st.sampled_from([1e-12, 1e-6, 1e-3, 0.25]))
    def test_every_probability_lies_in_the_clip_interval(
            self, treatment, seed, n, members, logit_scale, scale, clip_eps):
        rng = np.random.default_rng(seed)
        post = PopulationPosterior(
            mean=np.zeros(n + 1), variance=np.ones(n + 1), seed=0,
            ensemble=logit_scale * rng.normal(0, 1, (members, n + 1)))
        trial_sets = [trials_of([_record(treatment, rng.random(n), rng, i, f"s{k}")
                                 for i in range(4)]) for k in range(2)]
        params = [_random_params(treatment, n, rng, scale) for _ in trial_sets]
        p = decision_probability(trial_sets, post, params, clip_eps)
        assert p.shape == (8,)
        assert np.all((clip_eps <= p) & (p <= 1.0 - clip_eps))


class TestZeroNudgeProperty:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           members=st.integers(1, 300), trials=st.integers(1, 12),
           spread=st.floats(0.0, 30.0))
    def test_zero_nudge_is_the_unassisted_kernel_bit_exactly(
            self, seed, n, members, trials, spread):
        # random dimension, ensemble, features, recommendation, confidence
        # and initial decision: no nudge means the kernel at c = 0
        rng = np.random.default_rng(seed)
        post = PopulationPosterior(
            mean=np.zeros(n + 1), variance=np.ones(n + 1), seed=0,
            ensemble=spread * rng.normal(0, 1, (members, n + 1)))
        features = rng.random((trials, n))
        rec = rng.integers(0, 2, trials)
        initial = rng.integers(0, 2, trials)
        independent = unassisted(post, features)
        immediate = score_rows(post, Treatment.IMMEDIATE,
                               NudgeParams.for_immediate(zero_delta(n)), features,
                               ai_recommendation=rec,
                               ai_confidence=rng.uniform(0.5, 1.0, trials))
        explanation = score_rows(post, Treatment.EXPLANATION,
                                 NudgeParams.for_explanation(1.0), features,
                                 explanation_mask=np.ones((trials, n), dtype=int))
        assert np.array_equal(immediate, independent)
        assert np.array_equal(explanation, independent)
        # the delayed kernel averages the unassisted response over the
        # members the initial decision keeps
        delayed = score_rows(post, Treatment.DELAYED,
                             NudgeParams.for_delayed(zero_delta(n), zero_delta(n)),
                             features, ai_recommendation=rec, initial_decision=initial)
        mask = EnsembleResponse(post.ensemble, features,
                                initial).members_of(np.arange(trials))[1]
        for t in range(trials):
            kept = PopulationPosterior(mean=post.mean, variance=post.variance,
                                       ensemble=post.ensemble[mask[t] == 1.0], seed=0)
            assert delayed[t] == pytest.approx(
                unassisted(kept, features[t:t + 1])[0], rel=0, abs=1e-15)


def _bits(*values):
    return np.array(values, dtype=float).view(np.uint64).tolist()


class TestSharedRows:
    def test_rows_are_keyed_on_bytes_and_the_initial_decision(self):
        # -0.0 and 0.0 compare equal but are other input bits, and a delayed
        # trial's initial decision picks its mask: either keeps a row apart
        post = random_posterior(np.random.default_rng(3), 2, size=20)
        features = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5], [-0.0, 0.5],
                             [0.3, 0.5]])
        response = EnsembleResponse(post.ensemble, features)
        assert response.columns.tolist() == [0, 1, 0, 1, 2]
        alone = EnsembleResponse(post.ensemble, features[[0, 1, 4]])
        assert np.array_equal(response.members_of(np.arange(3))[0],
                              alone.members_of(np.arange(3))[0])
        same = np.tile([0.2, 0.5], (5, 1))
        delayed = EnsembleResponse(post.ensemble, same, np.array([0, 1, 0, 1, 1]))
        assert delayed.columns.tolist() == [0, 1, 0, 1, 1]
        assert delayed.members_of(np.arange(2))[1].shape == (2, 20)
        # one member has nothing to share: one row per trial
        point = singleton_posterior([1.0, -1.0])
        assert EnsembleResponse(point.ensemble, same).columns.tolist() == [0, 1, 2, 3, 4]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           members=st.sampled_from([1, 2, 37, 300]), trials=st.integers(1, 5),
           delayed=st.booleans(), shifts=st.integers(1, 4),
           chunk_elements=st.sampled_from([1, 50, 300, 1 << 15]),
           spread=st.floats(0.0, 30.0))
    def test_a_trials_values_do_not_depend_on_its_stack(
            self, seed, n, members, trials, delayed, shifts, chunk_elements,
            spread):
        # each trial stacked 1-4 times in a random order, each copy at its
        # own m = ``shifts`` shifts, under any chunk budget: every value (p,
        # slope, curvature; the scored and the unassisted probability) is
        # the bits of the per-record member loop on that trial alone
        rng = np.random.default_rng(seed)
        ensemble = spread * rng.normal(0, 1, (members, n + 1))
        features = rng.random((trials, n))
        initial = rng.integers(0, 2, trials) if delayed else None
        copies = rng.permutation(np.repeat(np.arange(trials),
                                           rng.integers(1, 5, trials)))
        shift = rng.normal(0.0, 3.0, (copies.size, shifts))
        shift[rng.random(shift.shape) < 0.3] = 0.0
        pick = None if initial is None else initial[copies]
        with mock.patch.object(nudge, "_CHUNK_ELEMENTS", chunk_elements):
            response = EnsembleResponse(ensemble, features[copies], pick)
            rows = response._rows(response.columns, shift, 2)
            exact = response.exact(shift.T)
            scored = nudge._response_at(ensemble, features[copies], shift[:, 0], pick)
            unassisted = nudge._unassisted(ensemble, features[copies])
        assert len(response.features) == (trials if members > 1 else copies.size)
        for i, t in enumerate(copies):
            first = None if initial is None else initial[t]
            for j, c in enumerate(shift[i]):
                want = per_record.trial_response(ensemble, features[t], c, first)
                assert _bits(*(a[i, j] for a in rows)) == _bits(*want)
                assert _bits(*(a[j, i] for a in exact)) == _bits(*want[:2])
                if j == 0:
                    assert _bits(scored[i]) == _bits(want[0])
            alone = per_record.trial_response(ensemble, features[t], 0.0)[0]
            assert _bits(unassisted[i]) == _bits(alone)
