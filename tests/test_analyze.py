"""Effect summaries, CRT grouping, ANOVA, permutation post-hoc."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nudgelab import (
    Branch,
    CrtGroup,
    InputError,
    NudgeParams,
    SignedSharedSignVector,
    Treatment,
    UsageError,
    crt_group,
    effect_summary,
    f_survival,
    one_way_anova,
    pairwise_posthoc,
    random_nudge_params,
)
from nudgelab.analyze import BRANCH_FIELDS, TREATMENT_BRANCHES


class TestCrtGrouping:
    def test_mapping(self):
        assert crt_group(0) == CrtGroup.INTUITIVE
        assert crt_group(1) == CrtGroup.MODERATE
        assert crt_group(2) == CrtGroup.MODERATE
        assert crt_group(3) == CrtGroup.REFLECTIVE

    def test_out_of_range(self):
        with pytest.raises(InputError):
            crt_group(4)


class TestEffectSummary:
    def test_zero_vector(self):
        params = NudgeParams.for_immediate(SignedSharedSignVector.zero(3))
        assert effect_summary(params, Branch.DIRECT) == 0.0

    def test_negative_scale_euclidean_norm(self):
        params = NudgeParams.for_immediate(
            SignedSharedSignVector(-2.0, np.array([0.6, 0.8])))
        # realized (-1.2, -1.6) has norm 2, sign -1
        assert effect_summary(params, Branch.DIRECT) == pytest.approx(-2.0, abs=1e-12)

    def test_attention_passthrough(self):
        params = NudgeParams.for_explanation(0.75)
        assert effect_summary(params, Branch.EXP) == 0.75

    def test_absent_branch_rejected(self):
        params = NudgeParams.for_explanation(0.75)
        with pytest.raises(UsageError):
            effect_summary(params, Branch.DIRECT)

    def test_delayed_branches(self):
        params = NudgeParams.for_delayed(
            SignedSharedSignVector(1.0, np.array([3.0, 4.0])),
            SignedSharedSignVector(-0.5, np.array([6.0, 8.0])),
        )
        assert effect_summary(params, Branch.AFFIRM) == pytest.approx(5.0)
        assert effect_summary(params, Branch.CONTRA) == pytest.approx(-5.0)


class TestBranchTable:
    def test_lists_every_treatment_and_branch(self):
        assert list(TREATMENT_BRANCHES) == list(Treatment)
        listed = [b for branches in TREATMENT_BRANCHES.values() for b in branches]
        assert sorted(listed) == sorted(Branch) == sorted(BRANCH_FIELDS)

    def test_effect_summary_accepts_each_listed_branch(self):
        rng = np.random.default_rng(17)
        for treatment, branches in TREATMENT_BRANCHES.items():
            params = random_nudge_params(treatment, 4, rng)
            assert (params is None) == (not branches)
            for branch in branches:
                assert np.isfinite(effect_summary(params, branch))


class TestOneWayAnova:
    def test_hand_computed_example(self):
        result = one_way_anova([[1, 2], [4, 5], [7, 8]])
        assert result.f_statistic == pytest.approx(36.0, abs=1e-12)
        assert result.df_between == 2
        assert result.df_within == 3
        assert not result.degenerate
        assert result.p_value == pytest.approx(stats.f.sf(36.0, 2, 3), abs=1e-12)

    def test_equal_means_give_zero_f(self):
        result = one_way_anova([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0

    def test_all_identical_flagged_degenerate(self):
        result = one_way_anova([[5, 5], [5, 5]])
        assert result.f_statistic == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_zero_within_variance_unequal_means(self):
        result = one_way_anova([[1, 1], [2, 2]])
        assert np.isinf(result.f_statistic)
        assert result.p_value == 0.0
        assert result.degenerate

    def test_small_group_rejected(self):
        with pytest.raises(UsageError):
            one_way_anova([[1.0], [2, 3]])
        with pytest.raises(UsageError):
            one_way_anova([[1, 2]])

    def test_p_matches_scipy_reference(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            groups = [rng.normal(rng.normal(0, 1), 1, rng.integers(3, 12))
                      for _ in range(rng.integers(2, 5))]
            ours = one_way_anova(groups)
            f_ref, p_ref = stats.f_oneway(*groups)
            assert ours.f_statistic == pytest.approx(f_ref, rel=1e-10)
            assert ours.p_value == pytest.approx(p_ref, rel=1e-8)

    def test_invariances(self):
        rng = np.random.default_rng(9)
        groups = [list(rng.normal(i, 1, 6)) for i in range(3)]
        base = one_way_anova(groups)
        reordered = one_way_anova(groups[::-1])
        shifted = one_way_anova([[v + 11.5 for v in g] for g in groups])
        scaled = one_way_anova([[v * 3.0 for v in g] for g in groups])
        assert reordered.f_statistic == pytest.approx(base.f_statistic, rel=1e-12)
        assert shifted.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)
        assert scaled.f_statistic == pytest.approx(base.f_statistic, rel=1e-9)

    def test_survival_function_shape(self):
        assert f_survival(0.0, 2, 10) == 1.0
        values = [f_survival(f, 2, 10) for f in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert f_survival(float("inf"), 2, 10) == 0.0


class TestPairwisePosthoc:
    def test_identical_groups_p_near_one(self):
        rng = np.random.default_rng(12)
        g = list(rng.normal(0, 1, 8))
        comparisons = pairwise_posthoc([g, list(g)], n_permutations=2000, seed=0)
        assert comparisons[0].p_value >= 0.9

    def test_extreme_separation(self):
        rng = np.random.default_rng(13)
        a = [0.0, 0.0, 0.0, 0.0] + list(rng.normal(0, 1e-3, 2))
        b = [10.0, 10.0, 10.0, 10.0] + list(10 + rng.normal(0, 1e-3, 2))
        comparisons = pairwise_posthoc([a, b], n_permutations=10000, seed=0)
        assert comparisons[0].p_value <= 0.01

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(14)
        groups = [list(rng.normal(i, 1, 7)) for i in range(3)]
        c1 = pairwise_posthoc(groups, n_permutations=500, seed=3)
        c2 = pairwise_posthoc(groups, n_permutations=500, seed=3)
        assert [c.p_value for c in c1] == [c.p_value for c in c2]

    def test_reports_every_pair(self):
        rng = np.random.default_rng(15)
        groups = [list(rng.normal(i, 1, 5)) for i in range(3)]
        comparisons = pairwise_posthoc(groups, n_permutations=200, seed=0)
        assert [c.pair for c in comparisons] == [(0, 1), (0, 2), (1, 2)]

    def test_too_few_permutations_rejected(self):
        with pytest.raises(UsageError):
            pairwise_posthoc([[1, 2], [3, 4]], n_permutations=50, seed=0)

    def test_p_values_are_valid_probabilities(self):
        rng = np.random.default_rng(16)
        groups = [list(rng.normal(0, 1, 6)), list(rng.normal(0.8, 1, 6)),
                  list(rng.normal(-0.3, 1, 6))]
        comparisons = pairwise_posthoc(groups, n_permutations=1000, seed=5)
        for c in comparisons:
            assert 0.0 <= c.p_value <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        groups=st.lists(
            st.lists(st.sampled_from([-2.5, -1.0, 0.0, 0.1, 0.3, 1.0, 7.25])
                     | st.floats(-1e3, 1e3), min_size=2, max_size=6),
            min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_p_values_equal_an_explicit_pairwise_maximum(self, groups, seed):
        n_permutations = 150
        arrays = [np.asarray(g, dtype=float) for g in groups]
        pooled = np.concatenate(arrays)
        sizes = np.array([a.size for a in arrays])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        pairs = [(i, j) for i in range(len(arrays))
                 for j in range(i + 1, len(arrays))]
        rng = np.random.default_rng(seed)
        max_stats = np.empty(n_permutations)
        for k in range(n_permutations):
            means = np.add.reduceat(pooled[rng.permutation(pooled.size)],
                                    starts) / sizes
            max_stats[k] = max(abs(means[i] - means[j]) for i, j in pairs)
        observed = [a.mean() for a in arrays]

        comparisons = pairwise_posthoc(groups, n_permutations, seed)
        assert [c.pair for c in comparisons] == pairs
        for c, (i, j) in zip(comparisons, pairs):
            assert c.mean_diff == observed[i] - observed[j]
            assert c.p_value == np.mean(max_stats >= abs(observed[i] - observed[j]))

    @settings(max_examples=30, deadline=None)
    @given(
        groups=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
                        min_size=2, max_size=4),
        n_permutations=st.sampled_from([100, 999, 1000, 1001, 2000, 2345]),
        seed=st.integers(0, 2**16),
    )
    def test_blocks_of_permutations_equal_one_at_a_time(self, groups,
                                                        n_permutations, seed):
        # the oracle draws and reduces one permutation at a time, as
        # pairwise_posthoc did before it drew them in blocks
        arrays = [np.asarray(g, dtype=float) for g in groups]
        pooled = np.concatenate(arrays)
        sizes = np.array([a.size for a in arrays])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        rng = np.random.default_rng(seed)
        max_stats = np.empty(n_permutations)
        for k in range(n_permutations):
            shuffled = pooled[rng.permutation(pooled.size)]
            means = np.add.reduceat(shuffled, starts) / sizes
            max_stats[k] = means.max() - means.min()
        observed = [a.mean() for a in arrays]

        comparisons = pairwise_posthoc(groups, n_permutations, seed)
        pairs = [(i, j) for i in range(len(arrays))
                 for j in range(i + 1, len(arrays))]
        assert [c.pair for c in comparisons] == pairs
        for c, (i, j) in zip(comparisons, pairs):
            assert c.mean_diff == observed[i] - observed[j]
            assert c.p_value == np.mean(max_stats >= abs(observed[i] - observed[j]))
