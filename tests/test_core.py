"""Core decision model: logistic response, KL, variational fit, filtering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit

from nudgelab import (
    ConfigurationError,
    DomainError,
    PopulationFitConfig,
    PopulationPosterior,
    TaskInstance,
    UsageError,
    WeightVector,
    condition_on_decision,
    elbo_and_gradient,
    fit_population,
    gaussian_kl,
    logistic_response,
    predict_independent,
)

from nudgelab._util import derive_seed
from nudgelab.core import _elbo_hessian

from conftest import random_posterior, random_task, singleton_posterior


class TestLogisticResponse:
    def test_zero_weights_force_half(self):
        task = TaskInstance([0.5, 0.5])
        assert logistic_response(task, WeightVector([0.0, 0.0])) == 0.5

    def test_closed_form_values(self):
        assert logistic_response(
            TaskInstance([1.0, 1.0]), WeightVector([1.0, 1.0])
        ) == pytest.approx(0.8807970779778823, abs=1e-12)
        # (-1)*0.2 + 2*0.8 + 0.1 = 1.5
        assert logistic_response(
            TaskInstance([0.2, 0.8]), WeightVector([-1.0, 2.0], bias=0.1)
        ) == pytest.approx(float(expit(1.5)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            logistic_response(TaskInstance([0.5]), WeightVector([1.0, 2.0]))

    def test_strictly_increasing_in_score(self):
        # probe each coordinate on 100 random (task, weight) pairs
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            task = random_task(rng, n)
            w = rng.normal(0.0, 2.0, n)
            base = logistic_response(task, WeightVector(w, bias=0.3))
            bumped = logistic_response(task, WeightVector(w, bias=0.3 + 1e-4))
            assert bumped > base

    def test_feature_range_enforced(self):
        with pytest.raises(ConfigurationError):
            TaskInstance([0.5, 1.2])
        with pytest.raises(ConfigurationError):
            TaskInstance([-0.1])


class TestGaussianKl:
    def test_identical_distributions_zero(self):
        post = PopulationPosterior.from_moments([0.0, 0.0], [1.0, 1.0], 5, seed=1)
        assert gaussian_kl(post, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mean_shift(self):
        post = PopulationPosterior.from_moments([1.0, 0.0], [1.0, 1.0], 5, seed=1)
        assert gaussian_kl(post, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_matches_numeric_quadrature(self):
        # 1-D quadrature per coordinate, summed, on 20 random cases
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            mean = rng.normal(0.0, 1.5, dim)
            var = rng.uniform(0.1, 3.0, dim)
            pv = float(rng.uniform(0.3, 2.0))
            post = PopulationPosterior.from_moments(mean, var, 3, seed=0)

            def integrand(x, mu, v):
                q = np.exp(-0.5 * (x - mu) ** 2 / v) / np.sqrt(2 * np.pi * v)
                logp = -0.5 * x * x / pv - 0.5 * np.log(2 * np.pi * pv)
                logq = -0.5 * (x - mu) ** 2 / v - 0.5 * np.log(2 * np.pi * v)
                return q * (logq - logp)

            expected = sum(
                quad(integrand, mu - 12 * np.sqrt(v), mu + 12 * np.sqrt(v),
                     args=(mu, v), limit=200)[0]
                for mu, v in zip(mean, var)
            )
            assert gaussian_kl(post, pv) == pytest.approx(expected, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            post = random_posterior(rng, 3, size=2)
            assert gaussian_kl(post, float(rng.uniform(0.2, 3.0))) >= 0.0

    def test_bad_prior_variance(self):
        post = PopulationPosterior.from_moments([0.0, 0.0], [1.0, 1.0], 2, seed=0)
        with pytest.raises(DomainError):
            gaussian_kl(post, 0.0)

    def test_nonpositive_posterior_variance_rejected(self):
        with pytest.raises(DomainError):
            PopulationPosterior.from_moments([0.0, 0.0], [1.0, 0.0], 2, seed=0)

    def test_moment_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="mean and variance"):
            PopulationPosterior.from_moments([0.0, 0.0, 0.0], [1.0, 1.0], 2, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_invalid_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            PopulationPosterior.from_moments([0.0, 0.0], [1.0, 1.0], 2, seed=seed)


class TestElboGradient:
    def test_matches_finite_differences(self):
        # frozen common random numbers make the ELBO deterministic, so
        # central differences must match the analytic gradient
        rng = np.random.default_rng(7)
        n, n_obs, n_draws = 2, 30, 12
        design = np.hstack([rng.random((n_obs, n)), np.ones((n_obs, 1))])
        labels = rng.integers(0, 2, n_obs).astype(float)
        noise = rng.standard_normal((n_draws, n + 1))
        h = 1e-5
        for _ in range(20):
            mean = rng.normal(0.0, 1.0, n + 1)
            log_std = rng.normal(-1.0, 0.5, n + 1)
            _, g_mean, g_log_std = elbo_and_gradient(
                mean, log_std, design, labels, noise, 1.0
            )
            analytic = np.concatenate([g_mean, g_log_std])
            for k in range(2 * (n + 1)):
                def value(delta, k=k):
                    m, s = mean.copy(), log_std.copy()
                    (m if k <= n else s)[k % (n + 1)] += delta
                    return elbo_and_gradient(m, s, design, labels, noise, 1.0)[0]

                fd = (value(h) - value(-h)) / (2 * h)
                assert abs(analytic[k] - fd) <= 1e-3 * max(abs(fd), abs(analytic[k]), 1e-8)


def _gradient_in_std(mean, std, design, labels, noise, prior_variance):
    """The ELBO's gradient in (mean, std), the coordinates the fit solves in."""
    _, g_mean, g_log_std = elbo_and_gradient(
        mean, np.log(std), design, labels, noise, prior_variance)
    return np.concatenate([g_mean, g_log_std / std])


class TestElboHessian:
    def test_matches_differenced_gradient_and_is_negative_definite(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(20):
            n, n_obs, n_draws = (int(rng.integers(1, 5)), int(rng.integers(1, 40)),
                                 int(rng.integers(1, 30)))
            design = np.hstack([rng.random((n_obs, n)), np.ones((n_obs, 1))])
            labels = rng.integers(0, 2, n_obs).astype(float)
            noise = rng.standard_normal((n_draws, n + 1))
            prior_variance = float(rng.uniform(0.1, 5.0))
            mean = rng.normal(0.0, 1.0, n + 1)
            std = rng.uniform(0.05, 1.5, n + 1)
            theta = np.concatenate([mean, std])
            hessian = _elbo_hessian(mean, std, design, noise, prior_variance)

            def gradient(delta, k):
                t = theta.copy()
                t[k] += delta
                return _gradient_in_std(t[:n + 1], t[n + 1:], design, labels,
                                        noise, prior_variance)

            numeric = np.stack([(gradient(h, k) - gradient(-h, k)) / (2 * h)
                                for k in range(theta.size)], axis=1)
            assert np.abs(numeric - hessian).max() <= 1e-6
            assert np.linalg.eigvalsh(hessian).max() < 0.0


def _fast_config(**kwargs):
    defaults = dict(iterations=400, train_samples=24, ensemble_size=200, seed=0)
    defaults.update(kwargs)
    return PopulationFitConfig(**defaults)


class TestFitPopulation:
    def test_empty_data_rejected(self):
        with pytest.raises(UsageError):
            fit_population([], _fast_config())

    def test_bias_absorbs_constant_labels(self):
        # all-zero features leave only the intercept to explain the labels
        data = [(TaskInstance([0.0, 0.0]), 1) for _ in range(200)]
        post = fit_population(data, _fast_config())
        assert post.mean[-1] > 0.5
        assert np.all(np.abs(post.mean[:2]) < 0.05)

    def test_small_prior_shrinks_mean(self):
        rng = np.random.default_rng(3)
        w = np.array([1.5, -1.0])
        tasks = rng.random((300, 2))
        labels = (rng.random(300) < expit(tasks @ w)).astype(int)
        data = [(TaskInstance(x), int(y)) for x, y in zip(tasks, labels)]
        wide = fit_population(data, _fast_config(prior_variance=1.0))
        tight = fit_population(data, _fast_config(prior_variance=0.01))
        assert np.linalg.norm(tight.mean) < np.linalg.norm(wide.mean)

    def test_recovers_known_weights_n2(self):
        rng = np.random.default_rng(9)
        w, b = np.array([1.1, -0.9]), 0.2
        tasks = rng.random((2000, 2))
        labels = (rng.random(2000) < expit(tasks @ w + b)).astype(int)
        data = [(TaskInstance(x), int(y)) for x, y in zip(tasks, labels)]
        post = fit_population(data, _fast_config(iterations=800))
        assert np.all(np.abs(post.mean - np.array([1.1, -0.9, 0.2])) < 0.15)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(9)
        data = [(TaskInstance(x), int(y)) for x, y in
                zip(rng.random((50, 2)), rng.integers(0, 2, 50))]
        a = fit_population(data, _fast_config(iterations=100))
        b = fit_population(data, _fast_config(iterations=100))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)
        assert np.array_equal(a.ensemble, b.ensemble)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(1, 400),
        n_features=st.integers(1, 8),
        binary=st.booleans(),
        labelling=st.sampled_from(["random", "constant", "separable"]),
        prior_variance=st.floats(0.01, 10.0),
        train_samples=st.integers(1, 100),
        seed=st.integers(0, 2**16),
    )
    def test_newton_reaches_the_maximum(self, n_rows, n_features, binary,
                                        labelling, prior_variance,
                                        train_samples, seed):
        # the ELBO is strictly concave in (mean, std): at the returned
        # moments its gradient vanishes, and it is above its starting value
        rng = np.random.default_rng(seed)
        tasks = rng.random((n_rows, n_features))
        if binary:
            tasks = np.round(tasks)
        labels = {"random": rng.integers(0, 2, n_rows),
                  "constant": np.full(n_rows, seed % 2),
                  "separable": (tasks[:, 0] >= 0.5).astype(int)}[labelling]
        data = [(TaskInstance(x), int(y)) for x, y in zip(tasks, labels)]
        config = PopulationFitConfig(seed=seed, train_samples=train_samples,
                                     ensemble_size=1, prior_variance=prior_variance)
        post = fit_population(data, config)

        design = np.hstack([tasks, np.ones((n_rows, 1))])
        noise = np.random.default_rng(derive_seed(seed, "elbo-noise")).standard_normal(
            (train_samples, n_features + 1))
        args = (design, labels.astype(float), noise, prior_variance)
        std = np.sqrt(post.variance)
        assert np.abs(_gradient_in_std(post.mean, std, *args)).max() <= 1e-8
        fitted = elbo_and_gradient(post.mean, np.log(std), *args)[0]
        initial = elbo_and_gradient(np.zeros(n_features + 1),
                                    np.full(n_features + 1, np.log(0.3)), *args)[0]
        assert fitted >= initial


class TestPredictIndependent:
    def test_singleton_tie_goes_to_one(self):
        post = singleton_posterior([0.0, 0.0], bias=0.0)
        prob, decision = predict_independent(post, TaskInstance([0.3, 0.9]))
        assert prob == 0.5
        assert decision == 1

    def test_two_member_average(self, two_member_posterior):
        prob, decision = predict_independent(
            two_member_posterior, TaskInstance([1.0, 0.0])
        )
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert decision == 1

    def test_single_member_matches_logistic_response(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            w = WeightVector(rng.normal(0, 2, n), bias=float(rng.normal()))
            post = singleton_posterior(w.weights, w.bias)
            task = random_task(rng, n)
            prob, decision = predict_independent(post, task)
            direct = logistic_response(task, w)
            assert prob == direct
            assert decision == int(direct >= 0.5)

    def test_dimension_mismatch(self, two_member_posterior):
        with pytest.raises(ConfigurationError):
            predict_independent(two_member_posterior, TaskInstance([0.1]))


class TestConditionOnDecision:
    def test_retains_consistent_member(self, two_member_posterior):
        fe = condition_on_decision(two_member_posterior, TaskInstance([1.0, 0.0]), 1)
        assert fe.members.shape == (1, 3)
        assert fe.members[0, 0] == 1.0
        assert not fe.fallback_used
        assert fe.source_size == 2

    def test_identity_when_all_consistent(self, two_member_posterior):
        # x = 0 gives every member probability 0.5 -> decision 1
        fe = condition_on_decision(two_member_posterior, TaskInstance([0.0, 0.0]), 1)
        assert np.array_equal(fe.members, two_member_posterior.ensemble)
        assert not fe.fallback_used

    def test_fallback_on_empty_filter(self):
        post = singleton_posterior([1.0, 0.0])
        fe = condition_on_decision(post, TaskInstance([1.0, 0.0]), 0)
        assert fe.fallback_used
        assert np.array_equal(fe.members, post.ensemble)

    def test_subset_and_nonempty(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            post = random_posterior(rng, 3, size=20)
            task = random_task(rng, 3)
            observed = int(rng.integers(0, 2))
            fe = condition_on_decision(post, task, observed)
            assert fe.members.shape[0] >= 1
            if not fe.fallback_used:
                rows = {tuple(r) for r in fe.members}
                full = {tuple(r) for r in post.ensemble}
                assert rows <= full
                probs = expit(fe.members @ np.append(task.features, 1.0))
                assert np.all((probs >= 0.5) == bool(observed))


class TestPosteriorType:
    def test_ensemble_reproducible_from_seed(self):
        a = PopulationPosterior.from_moments([0.5, -0.5], [0.3, 0.4], 50, seed=77)
        b = PopulationPosterior.from_moments([0.5, -0.5], [0.3, 0.4], 50, seed=77)
        assert np.array_equal(a.ensemble, b.ensemble)
        assert a.ensemble.shape == (50, 2)

    def test_point_posterior_is_exact_singleton(self):
        w = WeightVector([1.0, 2.0], bias=-0.5)
        post = PopulationPosterior.point(w)
        assert np.array_equal(post.ensemble, np.array([[1.0, 2.0, -0.5]]))


class TestElboContract:
    def test_returned_posterior_not_below_initialization(self):
        rng = np.random.default_rng(29)
        tasks = rng.random((150, 2))
        labels = (rng.random(150) < expit(tasks @ [1.0, -1.0])).astype(int)
        data = [(TaskInstance(x), int(y)) for x, y in zip(tasks, labels)]
        config = _fast_config(iterations=120)
        post = fit_population(data, config)

        design = np.hstack([tasks, np.ones((150, 1))])
        noise = np.random.default_rng(
            derive_seed(config.seed, "elbo-noise")
        ).standard_normal((config.train_samples, 3))
        fitted, _, _ = elbo_and_gradient(
            post.mean, 0.5 * np.log(post.variance), design,
            labels.astype(float), noise, config.prior_variance)
        initial, _, _ = elbo_and_gradient(
            np.zeros(3), np.full(3, np.log(0.3)), design,
            labels.astype(float), noise, config.prior_variance)
        assert fitted >= initial
