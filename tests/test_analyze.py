"""Effect summaries, CRT grouping, ANOVA, permutation post-hoc."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nudgelab import (
    Branch,
    CrtGroup,
    FitConfig,
    InputError,
    NudgeParams,
    PopulationPosterior,
    SignedSharedSignVector,
    SyntheticSubject,
    Treatment,
    UsageError,
    WeightVector,
    crt_group,
    default_population_moments,
    default_surrogate_ai,
    effect_summary,
    f_survival,
    fit_nudge_batch,
    generate_behavior,
    one_way_anova,
    pairwise_posthoc,
    random_nudge_params,
    uniform_tasks,
)
from nudgelab._util import derive_seed
from nudgelab.analyze import cognitive_style_tables
from nudgelab.nudge import BRANCHES


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
        assert list(BRANCHES) == list(Treatment)
        listed = [b for branches in BRANCHES.values() for b in branches]
        assert sorted(listed) == sorted(Branch)

    def test_effect_summary_accepts_each_listed_branch(self):
        rng = np.random.default_rng(17)
        for treatment, branches in BRANCHES.items():
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

    def test_survival_matches_scipy_on_a_grid(self):
        # F from 1e-8 to 1e4 over df1 in 1..10 and df2 in 2..10,000, the
        # domain f_survival documents, with x = df2 / (df2 + df1 F) from
        # 1 - 1e-12 down to 2e-5, and points closer to either end still
        f, df1, df2 = (a.ravel() for a in np.meshgrid(
            np.geomspace(1e-8, 1e4, 25), np.arange(1, 11),
            [2, 3, 5, 10, 30, 100, 1000, 10_000]))
        f = np.append(f, [1e-15, 1e-12, 1e100, 1e300])
        df1 = np.append(df1, [1, 10, 1, 10])
        df2 = np.append(df2, [10_000, 2, 2, 10_000])
        ours = np.array([f_survival(*point) for point in
                         zip(f.tolist(), df1.tolist(), df2.tolist())])
        error = np.abs(ours - stats.f.sf(f, df1, df2))
        print(f"f_survival: worst |error| {error.max():.2e} over {error.size} points")
        assert error.max() <= 1e-10

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
        # past float resolution in f, the limits; NaN in any input, NaN
        assert f_survival(1e308, 10, 2) == 0.0
        assert f_survival(1e-320, 1, 10) == 1.0
        assert np.isnan(f_survival(float("nan"), 2, 10))
        assert np.isnan(f_survival(1.0, float("nan"), 10))


def _tied(diff):
    """The least permuted statistic that reaches ``diff``: within a relative
    1e-12 below it, as pairwise_posthoc counts a tie."""
    return abs(diff) * (1.0 - 1e-12)


class TestPairwisePosthoc:
    def test_a_regrouped_observed_split_counts_as_a_tie(self):
        # the groups are so far apart that only the observed split and its
        # mirror reach the observed statistic, so the p-value is the share
        # of permutations that regroup one of them; a regrouped group is
        # summed in another order, and (2.3 + 1.3) + 1.1 is one bit below
        # (1.1 + 2.3) + 1.3, which an exact comparison would not count
        a, b = [0.1, 0.2, 0.3], [1.1, 2.3, 1.3]
        n_permutations = 200
        rng = np.random.default_rng(0)
        regrouped = [set(rng.permutation(6)[:3].tolist()) in ({0, 1, 2}, {3, 4, 5})
                     for _ in range(n_permutations)]
        comparison = pairwise_posthoc([a, b], n_permutations, seed=0)[0]
        assert comparison.p_value == np.mean(regrouped)

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
            assert c.p_value == np.mean(max_stats >= _tied(observed[i] - observed[j]))

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
            assert c.p_value == np.mean(max_stats >= _tied(observed[i] - observed[j]))


def _effect(subject_id, crt, magnitude, treatment="immediate", branch="direct"):
    return (subject_id, Treatment(treatment), Branch(branch), magnitude, crt)


class TestCognitiveStyleTables:
    def test_groups_anova_and_posthoc_of_a_worked_example(self):
        effects = [_effect("a", 0, 1.0), _effect("b", 0, 3.0), _effect("c", 1, 0.5),
                   _effect("d", 2, 1.5), _effect("e", 3, 9.0)]
        groups, anova, pairs, warnings = cognitive_style_tables(effects, 100, seed=4)
        half = 1.96 * np.std([1.0, 3.0], ddof=1) / np.sqrt(2)
        assert groups == [
            ("immediate", "direct", "intuitive", 2, 2.0, 2.0 - half, 2.0 + half),
            ("immediate", "direct", "moderate", 2, 1.0, 1.0 - half / 2, 1.0 + half / 2),
            ("immediate", "direct", "reflective", 1, 9.0, "", ""),
        ]
        # the reflective group has one subject, so only two groups are tested
        result = one_way_anova([[1.0, 3.0], [0.5, 1.5]])
        assert anova == [("immediate", "direct", result.f_statistic,
                          result.df_between, result.df_within, result.p_value,
                          False)]
        posthoc = pairwise_posthoc([[1.0, 3.0], [0.5, 1.5]], 100,
                                   derive_seed(4, "immediate", "direct", "posthoc"))
        assert pairs == [("immediate", "direct", "intuitive", "moderate",
                          posthoc[0].mean_diff, posthoc[0].p_value)]
        assert warnings == []

    def test_each_branch_is_analyzed_in_table_order(self):
        effects = [_effect(f"x{i}", i % 4, float(i), "explanation", "exp")
                   for i in range(8)]
        effects += [_effect(f"d{i}", i % 4, -float(i), "delayed", branch)
                    for i in range(8) for branch in ("contra", "affirm")]
        groups, anova, pairs, _ = cognitive_style_tables(effects, 100, seed=0)
        order = [("delayed", "affirm"), ("delayed", "contra"), ("explanation", "exp")]
        assert [row[:2] for row in groups[::3]] == order
        assert [row[:2] for row in anova] == order
        assert len(pairs) == 3 * 3

    def test_missing_scores_and_untestable_branches_are_warned(self):
        effects = [_effect("a", None, 1.0), _effect("b", 0, 2.0), _effect("c", 0, 4.0),
                   _effect("d", 3, 1.0)]
        groups, anova, pairs, warnings = cognitive_style_tables(effects, 100, seed=0)
        assert [row[3] for row in groups] == [2, 0, 1]
        assert groups[1][4:] == ("", "", "")
        assert anova == [] and pairs == []
        assert warnings == [
            "immediate/direct: fewer than two groups with >= 2 subjects; ANOVA skipped",
            "subject a has no CRT score",
        ]

    def test_out_of_range_score_rejected(self):
        with pytest.raises(InputError):
            cognitive_style_tables([_effect("a", 4, 1.0)], 100, seed=0)

    @pytest.mark.parametrize("magnitudes", [
        pytest.param((1e308, 1e308), id="mean-overflows"),
        pytest.param((1.9e154, -2.7e154), id="variance-overflows"),
    ])
    def test_effects_whose_statistics_overflow_rejected(self, magnitudes):
        # finite magnitudes whose group mean or squared deviations pass the
        # largest float
        effects = [_effect(f"s{i}", 0, m) for i, m in enumerate(magnitudes)]
        with pytest.raises(InputError, match="too large to analyze"):
            cognitive_style_tables(effects, 100, seed=0)


# A planted cognitive-style effect and its null twin, fixed before any run:
# 18 subjects (6 intuitive, 6 moderate, 6 reflective) of the immediate
# treatment, 30 trials each, in 10 replicates.  A subject trusts the AI with
# scale = level * u, u ~ U(0.75, 1.25); the planted level falls with the CRT
# score (2.0, 1.2, 0.4), the null twin's is 1.2 for everyone, on the same
# draws of weights, u, magnitudes, tasks and decisions.
_STUDY_SCORES = (0,) * 6 + (1, 2) * 3 + (3,) * 6
_PLANTED_LEVELS = {0: 2.0, 1: 1.2, 2: 1.2, 3: 0.4}
_NULL_LEVELS = dict.fromkeys(range(4), 1.2)
_STUDY_REPLICATES = range(10)
_STUDY_FEATURES = 4


def _study_subjects(replicate, levels):
    """The replicate's subjects under ``levels``, with their trials."""
    mean, variance = default_population_moments(_STUDY_FEATURES)
    ai = default_surrogate_ai(_STUDY_FEATURES)
    tasks = uniform_tasks(200, _STUDY_FEATURES, derive_seed(replicate, "tasks"))
    subjects = []
    for i, crt in enumerate(_STUDY_SCORES):
        rng = np.random.default_rng(derive_seed(replicate, i, "subject"))
        weights = mean + np.sqrt(variance) * rng.standard_normal(_STUDY_FEATURES + 1)
        shift = SignedSharedSignVector(levels[crt] * rng.uniform(0.75, 1.25),
                                       rng.uniform(0.4, 0.7, _STUDY_FEATURES))
        subject = SyntheticSubject(
            f"r{replicate}_s{i:02d}", WeightVector(weights[:-1], weights[-1]),
            NudgeParams.for_immediate(shift), Treatment.IMMEDIATE, 1.0, crt)
        picks = rng.choice(len(tasks), 30, replace=False)
        subjects.append((subject, generate_behavior(
            subject, tasks[picks], ai, seed=derive_seed(replicate, i, "behavior"))))
    return subjects


class TestPlantedCognitiveStyleEffect:
    def test_planted_effect_found_and_null_kept(self):
        mean, variance = default_population_moments(_STUDY_FEATURES)
        posterior = PopulationPosterior.from_moments(mean, variance, 200, seed=17)
        designs = {"planted": _PLANTED_LEVELS, "null": _NULL_LEVELS}
        studies = [(name, replicate, _study_subjects(replicate, levels))
                   for name, levels in designs.items()
                   for replicate in _STUDY_REPLICATES]
        subjects = [pair for _, _, study in studies for pair in study]
        fits = iter(fit_nudge_batch(
            [trials for _, trials in subjects], posterior, Treatment.IMMEDIATE,
            FitConfig(iterations=400, restarts=2, l2_penalty=0.05),
            seeds=[derive_seed(s.subject_id, "fit") for s, _ in subjects]))
        rejections = dict.fromkeys(designs, 0)
        for name, replicate, study in studies:
            effects = [(s.subject_id, s.treatment, Branch.DIRECT,
                        effect_summary(next(fits).params, Branch.DIRECT), s.crt_score)
                       for s, _ in study]
            _, anova, _, _ = cognitive_style_tables(effects, 100, seed=replicate)
            rejections[name] += anova[0][5] < 0.05
        replicates = len(_STUDY_REPLICATES)
        # the null twin's rejections, at the 0.05 level, may not exceed the
        # 95% quantile of Binomial(replicates, 0.05), which is 2 of 10
        bound = int(stats.binom.ppf(0.95, replicates, 0.05))
        print(f"\nplanted CRT effect: power {rejections['planted']}/{replicates}; "
              f"null twin: size {rejections['null']}/{replicates} (<= {bound})")
        # the planted effect must be found in at least 9 of the 10 replicates
        assert rejections["planted"] >= replicates - 1
        assert rejections["null"] <= bound
