"""Acceptance criteria.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -v -s`` to see
them on success). Criteria:

1. zero-nudge identity, bit-exact, 1000 random (posterior, task) pairs
2. numerical correctness: KL vs quadrature, ELBO and MLE gradients vs
   frozen-sample finite differences
3. population recovery on 2000 synthetic independent decisions (n=6)
4. nudge-parameter recovery for 50 subjects x 30 trials per treatment
5. data-efficiency ordering (framework vs baseline; probabilistic vs
   deterministic ablation)
6. statistics validation (ANOVA worked example, permutation post-hoc)
7. end-to-end pipeline determinism (byte-identical artifacts)
"""

import filecmp
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from nudgelab import (
    Branch,
    FitConfig,
    NudgeObjective,
    NudgeParams,
    PopulationFitConfig,
    PopulationPosterior,
    SignedSharedSignVector,
    SurrogateAI,
    SyntheticSubject,
    Treatment,
    Trials,
    WeightVector,
    elbo_and_gradient,
    evaluate_framework,
    fit_nudge_batch,
    fit_population,
    gaussian_kl,
    generate_behavior,
    learning_curve,
    one_way_anova,
    pairwise_posthoc,
    uniform_tasks,
)
from nudgelab._util import derive_seed, sigmoid
from nudgelab.cli import RunConfig, run_pipeline
from nudgelab.evaluate import SplitPlan
from nudgelab.nudge import EnsembleResponse
from nudgelab.simulate import default_population_moments, default_surrogate_ai

import per_record
from conftest import score_rows, unassisted

N_FEATURES = 6
POP_MEAN, _ = default_population_moments(N_FEATURES)


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- shared harness pieces ----------------------------------------------------


def boundary_tasks(n_tasks, max_abs_logit, seed):
    """Tasks near the population decision boundary (maximal information)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_tasks:
        x = rng.random(N_FEATURES)
        if abs(x @ POP_MEAN[:-1] + POP_MEAN[-1]) <= max_abs_logit:
            out.append(x)
    return np.array(out)


def sharp_ai(scale=2.0):
    base = default_surrogate_ai(N_FEATURES)
    return SurrogateAI(WeightVector(base.weights.weights * scale,
                                    base.weights.bias * scale), base.top_k)


def balanced_ai():
    """AI agreeing with a typical subject on ~half the boundary tasks."""
    weights = np.roll(POP_MEAN[:-1], 1) * 1.4
    return SurrogateAI(WeightVector(weights, -0.5 * float(weights.sum())), 2)


# -- criterion 1: zero-nudge identity -----------------------------------------


class TestCriterion1ZeroNudgeIdentity:
    def test_identity_suite(self):
        # every zero nudge, scored as one-row tables, is the ensemble
        # response at logit shift 0: the unassisted probability, or for the
        # delayed treatment its average over the members the old per-record
        # filter keeps
        rng = np.random.default_rng(1001)
        exact = 0
        total = 1000
        for i in range(total):
            n = int(rng.integers(1, 7))
            dim = n + 1
            posterior = PopulationPosterior.from_moments(
                rng.normal(0, 1, dim), rng.uniform(0.05, 0.8, dim), 24,
                seed=int(rng.integers(1 << 30)),
            )
            x = rng.random((1, n))
            zero = SignedSharedSignVector.zero(n)
            p_ind = unassisted(posterior, x)

            p_imm = score_rows(posterior, Treatment.IMMEDIATE,
                               NudgeParams.for_immediate(zero), x,
                               ai_recommendation=[int(rng.integers(0, 2))],
                               ai_confidence=[float(rng.uniform(0.5, 1.0))])

            initial = np.array([int(rng.integers(0, 2))])
            filtered = EnsembleResponse(posterior.ensemble, x, initial)
            kept, _ = per_record.condition_on_decision(posterior, x[0], initial[0])
            p_ref = filtered.exact(np.zeros(1))[0]
            p_del = score_rows(posterior, Treatment.DELAYED,
                               NudgeParams.for_delayed(zero, zero), x,
                               ai_recommendation=[int(rng.integers(0, 2))],
                               initial_decision=initial)

            p_exp = score_rows(posterior, Treatment.EXPLANATION,
                               NudgeParams.for_explanation(1.0), x,
                               explanation_mask=np.ones((1, n), dtype=int))

            exact += bool(np.array_equal(p_imm, p_ind)
                          and np.array_equal(p_del, p_ref)
                          and np.array_equal(
                              posterior.ensemble[filtered.members_of([0])[1][0] == 1.0], kept)
                          and np.array_equal(p_exp, p_ind))
        report(1, exact == total,
               f"bit-exact zero-nudge identity on {exact}/{total} random pairs")


# -- criterion 2: numerical correctness ---------------------------------------


class TestCriterion2Numerics:
    def test_kl_matches_quadrature(self):
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(20):
            dim = int(rng.integers(1, 5))
            mean = rng.normal(0, 1.5, dim)
            var = rng.uniform(0.1, 3.0, dim)
            pv = float(rng.uniform(0.3, 2.0))
            posterior = PopulationPosterior.from_moments(
                np.atleast_1d(np.append(mean, 0.0)),
                np.append(var, 1.0), 2, seed=0)

            def integrand(x, mu, v):
                q = np.exp(-0.5 * (x - mu) ** 2 / v) / np.sqrt(2 * np.pi * v)
                logq = -0.5 * (x - mu) ** 2 / v - 0.5 * np.log(2 * np.pi * v)
                logp = -0.5 * x * x / pv - 0.5 * np.log(2 * np.pi * pv)
                return q * (logq - logp)

            numeric = sum(
                quad(integrand, m - 12 * np.sqrt(v), m + 12 * np.sqrt(v),
                     args=(m, v), limit=200)[0]
                for m, v in zip(mean, var)
            )
            # the appended unit-variance zero-mean coordinate adds
            # 0.5*(1/pv - 1 - log(1/pv)) analytically
            numeric += 0.5 * (1.0 / pv - 1.0 + np.log(pv))
            worst = max(worst, abs(gaussian_kl(posterior, pv) - numeric))
        report("2a", worst <= 1e-6,
               f"analytic KL vs quadrature, worst abs err {worst:.2e}")

    def test_elbo_gradient_finite_differences(self):
        rng = np.random.default_rng(2003)
        design = np.hstack([rng.random((30, 2)), np.ones((30, 1))])
        labels = rng.integers(0, 2, 30).astype(float)
        noise = rng.standard_normal((16, 3))
        worst = 0.0
        h = 1e-5
        for _ in range(20):
            mean = rng.normal(0, 1, 3)
            log_std = rng.normal(-1, 0.5, 3)
            _, g_mean, g_log_std = elbo_and_gradient(mean, log_std, design,
                                                     labels, noise, 1.0)
            analytic = np.concatenate([g_mean, g_log_std])
            for k in range(6):
                def value(d, k=k):
                    m, s = mean.copy(), log_std.copy()
                    (m if k < 3 else s)[k % 3] += d
                    return elbo_and_gradient(m, s, design, labels, noise, 1.0)[0]

                fd = (value(h) - value(-h)) / (2 * h)
                worst = max(worst, abs(analytic[k] - fd)
                            / max(abs(fd), abs(analytic[k]), 1e-8))
        report("2b", worst <= 1e-3,
               f"ELBO gradient vs finite differences, worst rel err {worst:.2e}")

    def test_mle_gradient_finite_differences(self):
        posterior = PopulationPosterior.from_moments(
            np.array([1.0, -0.8, 0.6, -0.3]), np.full(4, 0.3), 50, seed=7)
        ai = SurrogateAI(WeightVector([1.2, 0.8, -1.0], bias=-0.5), top_k=2)
        tasks = uniform_tasks(20, 3, seed=5)
        rng = np.random.default_rng(2004)
        worst = 0.0
        h = 1e-5
        checked = 0
        for treatment, params in (
            (Treatment.IMMEDIATE, NudgeParams.for_immediate(
                SignedSharedSignVector(0.7, np.array([0.4, 0.3, 0.5])))),
            (Treatment.DELAYED, NudgeParams.for_delayed(
                SignedSharedSignVector(0.7, np.array([0.4, 0.3, 0.5])),
                SignedSharedSignVector(-0.5, np.array([0.2, 0.4, 0.3])))),
            (Treatment.EXPLANATION, NudgeParams.for_explanation(0.7)),
        ):
            subject = SyntheticSubject("g", WeightVector([1.0, -0.8, 0.6], -0.3),
                                       params, treatment, 1.0, 1)
            trials = generate_behavior(subject, tasks, ai, seed=11)
            objective = NudgeObjective([trials], posterior.ensemble, treatment)
            for _ in range(7):
                theta = rng.normal(0, 1, objective.n_params)
                grad = objective.value_and_gradient(theta[None, None])[1][0, 0]
                for k in range(objective.n_params):
                    def value(d, k=k):
                        t = theta.copy()
                        t[k] += d
                        return objective.value_and_gradient(t[None, None])[0][0, 0]

                    fd = (value(h) - value(-h)) / (2 * h)
                    worst = max(worst, abs(grad[k] - fd)
                                / max(abs(fd), abs(grad[k]), 1e-8))
                checked += 1
        report("2c", worst <= 1e-3,
               f"MLE gradient vs finite differences at {checked} points, "
               f"worst rel err {worst:.2e}")


# -- criterion 3: population recovery -----------------------------------------


class TestCriterion3PopulationRecovery:
    def test_recovery_and_bayes_gap(self):
        true_w = np.array([1.2, -0.8, 0.6, 1.0, -0.5, 0.3])
        true_b = -0.9
        gen = np.random.default_rng(5)
        features = gen.integers(0, 2, (2000, N_FEATURES)).astype(float)
        probs = sigmoid(features @ true_w + true_b)
        labels = (gen.random(2000) < probs).astype(int)
        posterior = fit_population(features, labels, PopulationFitConfig(seed=11))

        coord_err = float(np.abs(posterior.mean - np.append(true_w, true_b)).max())

        held = np.random.default_rng(1005)
        test_x = held.integers(0, 2, (4000, N_FEATURES)).astype(float)
        test_p = sigmoid(test_x @ true_w + true_b)
        test_y = (held.random(4000) < test_p).astype(int)
        bayes = float(np.mean((test_p >= 0.5) == test_y))
        model = float(np.mean((unassisted(posterior, test_x) >= 0.5) == test_y))
        gap = abs(bayes - model)
        report(3, coord_err <= 0.15 and gap <= 0.03,
               f"max coordinate error {coord_err:.3f} (<=0.15), "
               f"accuracy gap to Bayes {gap:.4f} (<=0.03)")


# -- criterion 4: nudge-parameter recovery ------------------------------------

RECOVERY_SEED = 2024
RECOVERY_SUBJECTS = 50
RECOVERY_TEMPERATURE = 0.5


def _recovery_tasks():
    return boundary_tasks(30, 0.5, 555)


def _bimodal_scale(rng, idx, weak, strong):
    lo, hi = weak if idx % 2 == 0 else strong
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(lo, hi)


def _fit_recovery_subjects(subjects, tasks, ai, posterior, l2, iterations=1500):
    """Each subject's fit, from one batch call over all of them."""
    records = [generate_behavior(
        subject, tasks, ai,
        seed=derive_seed(RECOVERY_SEED, subject.subject_id, "b"))
        for subject in subjects]
    config = FitConfig(l2_penalty=l2, iterations=iterations)
    seeds = [derive_seed(RECOVERY_SEED, subject.subject_id) for subject in subjects]
    return fit_nudge_batch(records, posterior, subjects[0].treatment, config, seeds)


class TestCriterion4NudgeRecovery:
    def test_immediate_recovery(self):
        posterior = PopulationPosterior.from_moments(
            POP_MEAN, np.full(N_FEATURES + 1, 0.15), 1000, seed=99)
        ai = sharp_ai()
        tasks = _recovery_tasks()
        mean_subject = WeightVector(POP_MEAN[:-1], POP_MEAN[-1])
        trues, subjects = [], []
        for i in range(RECOVERY_SUBJECTS):
            rng = np.random.default_rng(derive_seed(RECOVERY_SEED, "immediate", i))
            scale = _bimodal_scale(rng, i, (0.4, 1.0), (1.8, 2.6))
            true = SignedSharedSignVector(scale, rng.uniform(0.4, 0.7, N_FEATURES))
            trues.append(true)
            subjects.append(SyntheticSubject(
                f"imm{i:03d}", mean_subject, NudgeParams.for_immediate(true),
                Treatment.IMMEDIATE, RECOVERY_TEMPERATURE, int(rng.integers(0, 4))))
        fits = _fit_recovery_subjects(subjects, tasks, ai, posterior, l2=0.05)
        true_norms, fit_norms, signs_ok = [], [], 0
        for true, fit in zip(trues, fits):
            fitted = fit.params[Branch.DIRECT]
            true_norms.append(true.norm)
            fit_norms.append(fitted.norm)
            signs_ok += true.sign == fitted.sign
        r = float(np.corrcoef(true_norms, fit_norms)[0, 1])
        sign_rate = signs_ok / RECOVERY_SUBJECTS
        report("4a", sign_rate >= 0.9 and r >= 0.8,
               f"immediate: sign recovery {sign_rate:.0%} (>=90%), "
               f"Pearson r {r:.3f} (>=0.8)")

    def test_delayed_recovery(self):
        posterior = PopulationPosterior.from_moments(
            POP_MEAN, np.full(N_FEATURES + 1, 0.05), 1000, seed=99)
        ai = balanced_ai()
        tasks = _recovery_tasks()
        mean_subject = WeightVector(POP_MEAN[:-1], POP_MEAN[-1])
        magnitudes = np.full(N_FEATURES, 0.55)
        trues, subjects = [], []
        for i in range(RECOVERY_SUBJECTS):
            rng = np.random.default_rng(derive_seed(RECOVERY_SEED, "delayed", i))

            def draw():
                scale = _bimodal_scale(rng, i, (0.3, 0.45), (1.4, 1.6))
                return SignedSharedSignVector(scale, magnitudes.copy())

            true = NudgeParams.for_delayed(draw(), draw())
            trues.append(true)
            subjects.append(SyntheticSubject(
                f"del{i:03d}", mean_subject, true, Treatment.DELAYED,
                RECOVERY_TEMPERATURE, int(rng.integers(0, 4))))
        fits = _fit_recovery_subjects(subjects, tasks, ai, posterior, l2=0.02)
        true_norms, fit_norms = [], []
        signs_ok = total_signs = 0
        for true, fit in zip(trues, fits):
            fitted = fit.params
            true_norms.append(np.hypot(true[Branch.AFFIRM].norm,
                                       true[Branch.CONTRA].norm))
            fit_norms.append(np.hypot(fitted[Branch.AFFIRM].norm,
                                      fitted[Branch.CONTRA].norm))
            for branch in (Branch.AFFIRM, Branch.CONTRA):
                signs_ok += true[branch].sign == fitted[branch].sign
                total_signs += 1
        r = float(np.corrcoef(true_norms, fit_norms)[0, 1])
        sign_rate = signs_ok / total_signs
        report("4b", sign_rate >= 0.9 and r >= 0.8,
               f"delayed: sign recovery {sign_rate:.0%} (>=90%), "
               f"Pearson r on combined shift norm {r:.3f} (>=0.8)")

    def test_explanation_recovery(self):
        # attention identifiability needs contrast between the highlighted
        # and ignored feature halves, so tasks maximize that contrast
        from nudgelab import ai_explain

        posterior = PopulationPosterior.from_moments(
            POP_MEAN, np.full(N_FEATURES + 1, 0.05), 1000, seed=99)
        ai = sharp_ai()
        candidates = uniform_tasks(1500, N_FEATURES, seed=555)
        scored = []
        for task, mask in zip(candidates, ai_explain(ai, candidates).astype(float)):
            focused = np.append(mask * task, 1.0)
            ignored = np.append((1.0 - mask) * task, 1.0)
            separation = abs(float(np.mean(sigmoid(posterior.ensemble @ focused)))
                             - float(np.mean(sigmoid(posterior.ensemble @ ignored))))
            scored.append((separation, task))
        scored.sort(key=lambda pair: -pair[0])
        tasks = np.array([task for _, task in scored[:30]])

        mean_subject = WeightVector(POP_MEAN[:-1], POP_MEAN[-1])
        attentions, subjects = [], []
        for i in range(RECOVERY_SUBJECTS):
            rng = np.random.default_rng(derive_seed(RECOVERY_SEED, "explain", i))
            true_attention = float(rng.uniform(0.0, 1.0))
            attentions.append(true_attention)
            subjects.append(SyntheticSubject(
                f"exp{i:03d}", mean_subject,
                NudgeParams.for_explanation(true_attention),
                Treatment.EXPLANATION, 0.75, int(rng.integers(0, 4))))
        fits = _fit_recovery_subjects(subjects, tasks, ai, posterior, l2=0.0)
        errors = [abs(fit.params[Branch.EXP] - true_attention)
                  for fit, true_attention in zip(fits, attentions)]
        mean_err = float(np.mean(errors))
        report("4c", mean_err <= 0.2,
               f"explanation: mean |attention error| {mean_err:.3f} (<=0.2)")


# -- criterion 5: data-efficiency orderings -----------------------------------

EFFICIENCY_SUBJECTS = 40
EFFICIENCY_POP_SEED = 77


def _efficiency_population():
    from nudgelab.simulate import make_synthetic_subjects

    mean, var = default_population_moments(N_FEATURES, variance=0.15)
    ai = default_surrogate_ai(N_FEATURES)
    subjects = make_synthetic_subjects(
        Treatment.DELAYED, EFFICIENCY_SUBJECTS, mean, var,
        seed=EFFICIENCY_POP_SEED, noise_temperature=1.0,
        scale_range=(0.5, 1.5), magnitude_range=(0.3, 0.6))
    tables = []
    for subject in subjects:
        tasks = uniform_tasks(
            30, N_FEATURES,
            seed=derive_seed(EFFICIENCY_POP_SEED, subject.subject_id, "t"))
        tables.append(generate_behavior(
            subject, tasks, ai,
            seed=derive_seed(EFFICIENCY_POP_SEED, subject.subject_id, "b")))
    data = Trials.concat(tables)
    posterior = PopulationPosterior.from_moments(mean, var, 500, seed=12)
    return data, posterior


@pytest.fixture(scope="module")
def population():
    return _efficiency_population()


class TestCriterion5DataEfficiency:
    def test_framework_degrades_less_than_baseline(self, population):
        data, posterior = population
        config = FitConfig(iterations=400, restarts=3, seed=5, l2_penalty=0.05)
        plan = SplitPlan(run_seeds=(0, 1, 2, 3, 4))
        rows, _ = learning_curve(data, Treatment.DELAYED, posterior, [5, 25],
                                 plan, config)
        nll = {(r.method, r.size, r.run_seed): r.nll for r in rows}
        wins = 0
        details = []
        for run in plan.run_seeds:
            framework = nll[("framework", 5, run)] - nll[("framework", 25, run)]
            baseline = (nll[("logistic_baseline", 5, run)]
                        - nll[("logistic_baseline", 25, run)])
            wins += framework < baseline
            details.append(f"run {run}: {framework:+.3f} vs {baseline:+.3f}")
        report("5a", wins >= 4,
               f"framework degradation < baseline in {wins}/5 runs "
               f"({'; '.join(details)})")

    def test_probabilistic_beats_deterministic_ablation(self, population):
        data, posterior = population
        config = FitConfig(iterations=400, restarts=3, seed=5, l2_penalty=0.05)
        plan = SplitPlan(run_seeds=(0, 1, 2, 3, 4))
        probabilistic = evaluate_framework(data, posterior, plan, config)
        collapsed = PopulationPosterior.point(
            WeightVector(posterior.mean[:-1], posterior.mean[-1]))
        deterministic = evaluate_framework(data, collapsed, plan, config)
        report("5b", probabilistic.nll <= deterministic.nll,
               f"probabilistic test NLL {probabilistic.nll:.4f} <= "
               f"deterministic {deterministic.nll:.4f} "
               f"({EFFICIENCY_SUBJECTS} subjects)")


# -- criterion 6: statistics validation ---------------------------------------


class TestCriterion6Statistics:
    def test_anova_worked_example(self):
        result = one_way_anova([[1, 2], [4, 5], [7, 8]])
        ok = (abs(result.f_statistic - 36.0) < 1e-9
              and result.df_between == 2 and result.df_within == 3)
        report("6a", ok,
               f"one-way ANOVA worked example: F={result.f_statistic:.6f} "
               f"df=({result.df_between},{result.df_within}) p={result.p_value:.4f}")

    def test_posthoc_extremes(self):
        rng = np.random.default_rng(606)
        apart_a = [0.0] * 4 + list(rng.normal(0, 1e-3, 2))
        apart_b = [10.0] * 4 + list(10 + rng.normal(0, 1e-3, 2))
        separated = pairwise_posthoc([apart_a, apart_b],
                                     n_permutations=10000, seed=0)
        same = list(rng.normal(0, 1, 8))
        identical = pairwise_posthoc([same, list(same)],
                                     n_permutations=10000, seed=0)
        ok = separated[0].p_value <= 0.01 and identical[0].p_value >= 0.95
        report("6b", ok,
               f"post-hoc: separated p={separated[0].p_value:.5f} (<=0.01), "
               f"identical p={identical[0].p_value:.3f} (~1)")


# -- criterion 7: end-to-end determinism --------------------------------------


def _pipeline_config(out_dir):
    return RunConfig(
        n_features=4,
        seed=31,
        out_dir=str(out_dir),
        data_path=None,
        mc_ensemble_size=200,
        population_iterations=300,
        population_train_samples=16,
        nudge_iterations=120,
        nudge_restarts=2,
        run_seeds=(0, 1),
        train_sizes=(3,),
        sim_subjects_per_treatment=4,
        sim_trials_per_subject=10,
        sim_task_pool_size=80,
        posthoc_permutations=500,
    )


def _run_full_pipeline(out_dir):
    config = _pipeline_config(out_dir)
    assert run_pipeline("simulate", config) == 0
    import dataclasses

    config = dataclasses.replace(config,
                                 data_path=str(Path(out_dir) / "behavior.csv"))
    for command in ("fit-population", "fit-nudge", "evaluate", "analyze"):
        assert run_pipeline(command, config) == 0


class TestCriterion7Determinism:
    def test_pipeline_byte_identical(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        _run_full_pipeline(dir_a)
        _run_full_pipeline(dir_b)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*")
                         if p.is_file())
        same_sets = files_a == files_b
        mismatched = [str(rel) for rel in files_a
                      if not filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False)]
        ok = same_sets and not mismatched
        report(7, ok,
               f"{len(files_a)} artifacts byte-identical across two runs"
               + ("" if ok else f"; mismatched: {mismatched}"))
