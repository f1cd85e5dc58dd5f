"""Core decision model: logistic response, KL, variational fit, and the
unassisted prediction and decision filter of the posterior's ensemble."""

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
    Treatment,
    UsageError,
    WeightVector,
    decision_probability,
    elbo_and_gradient,
    fit_population,
    gaussian_kl,
)

from nudgelab._util import derive_seed
from nudgelab.core import _elbo_hessian
from nudgelab.nudge import EnsembleResponse

import per_record
from per_record import logistic_response
from conftest import (
    one_trial,
    random_posterior,
    singleton_posterior,
    unassisted,
)


class TestLogisticResponse:
    # the per-task oracle that the simulator's AI and the kernel are checked on
    def test_zero_weights_force_half(self):
        assert logistic_response([0.5, 0.5], WeightVector([0.0, 0.0])) == 0.5

    def test_closed_form_values(self):
        assert logistic_response(
            [1.0, 1.0], WeightVector([1.0, 1.0])
        ) == pytest.approx(0.8807970779778823, abs=1e-12)
        # (-1)*0.2 + 2*0.8 + 0.1 = 1.5
        assert logistic_response(
            [0.2, 0.8], WeightVector([-1.0, 2.0], bias=0.1)
        ) == pytest.approx(float(expit(1.5)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            logistic_response([0.5], WeightVector([1.0, 2.0]))

    def test_strictly_increasing_in_score(self):
        # probe each coordinate on 100 random (task, weight) pairs
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            task = rng.random(n)
            w = rng.normal(0.0, 2.0, n)
            base = logistic_response(task, WeightVector(w, bias=0.3))
            bumped = logistic_response(task, WeightVector(w, bias=0.3 + 1e-4))
            assert bumped > base


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
            fit_population([], [], _fast_config())
        with pytest.raises(UsageError):
            fit_population(np.empty((0, 2)), [], _fast_config())

    def test_feature_range_enforced(self):
        with pytest.raises(ConfigurationError, match=r"lie in \[0, 1\]"):
            fit_population([[0.5, 1.2]], [1], _fast_config())
        with pytest.raises(ConfigurationError, match=r"lie in \[0, 1\]"):
            fit_population([[-0.1]], [1], _fast_config())

    @pytest.mark.parametrize("features, message", [
        ([0.5, 0.5], "nonempty"),
        ([[]], "nonempty"),
        ([[[0.5]]], "nonempty"),
        ([[0.5, np.nan]], "finite"),
        ([[np.inf, 0.5]], "finite"),
    ])
    def test_feature_matrix_checked(self, features, message):
        with pytest.raises(ConfigurationError, match=message):
            fit_population(features, [1], _fast_config())

    @pytest.mark.parametrize("labels", [[2], [0.5], [-1], [0, 1], [[1]]])
    def test_labels_checked(self, labels):
        with pytest.raises(UsageError):
            fit_population([[0.5, 0.5]], labels, _fast_config())

    def test_bias_absorbs_constant_labels(self):
        # all-zero features leave only the intercept to explain the labels
        post = fit_population(np.zeros((200, 2)), np.ones(200, dtype=int),
                              _fast_config())
        assert post.mean[-1] > 0.5
        assert np.all(np.abs(post.mean[:2]) < 0.05)

    def test_small_prior_shrinks_mean(self):
        rng = np.random.default_rng(3)
        w = np.array([1.5, -1.0])
        tasks = rng.random((300, 2))
        labels = (rng.random(300) < expit(tasks @ w)).astype(int)
        wide = fit_population(tasks, labels, _fast_config(prior_variance=1.0))
        tight = fit_population(tasks, labels, _fast_config(prior_variance=0.01))
        assert np.linalg.norm(tight.mean) < np.linalg.norm(wide.mean)

    def test_recovers_known_weights_n2(self):
        rng = np.random.default_rng(9)
        w, b = np.array([1.1, -0.9]), 0.2
        tasks = rng.random((2000, 2))
        labels = (rng.random(2000) < expit(tasks @ w + b)).astype(int)
        post = fit_population(tasks, labels, _fast_config(iterations=800))
        assert np.all(np.abs(post.mean - np.array([1.1, -0.9, 0.2])) < 0.15)

    def test_bitwise_reproducible(self):
        rng = np.random.default_rng(9)
        tasks, labels = rng.random((50, 2)), rng.integers(0, 2, 50)
        a = fit_population(tasks, labels, _fast_config(iterations=100))
        b = fit_population(tasks, labels, _fast_config(iterations=100))
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
        config = PopulationFitConfig(seed=seed, train_samples=train_samples,
                                     ensemble_size=1, prior_variance=prior_variance)
        post = fit_population(tasks, labels, config)

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
    # the unassisted prediction is the ensemble response at logit shift 0
    def test_singleton_tie_goes_to_one(self):
        post = singleton_posterior([0.0, 0.0], bias=0.0)
        prob = unassisted(post, [[0.3, 0.9]])[0]
        assert prob == 0.5
        assert prob >= 0.5

    def test_two_member_average(self, two_member_posterior):
        prob = unassisted(two_member_posterior, [[1.0, 0.0]])[0]
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert prob >= 0.5

    def test_single_member_matches_logistic_response(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            w = WeightVector(rng.normal(0, 2, n), bias=float(rng.normal()))
            post = singleton_posterior(w.weights, w.bias)
            task = rng.random(n)
            direct = logistic_response(task, w)
            assert per_record.predict_independent(post, task) == direct
            # the kernel sums the logit one feature at a time and takes
            # 1 / (1 + e^-x), so it may differ from expit of the dot
            # product in the last bit, but not in the decision
            prob = unassisted(post, [task])[0]
            assert prob == pytest.approx(direct, rel=0, abs=1e-15)
            assert (prob >= 0.5) == (direct >= 0.5)

    def test_dimension_mismatch(self, two_member_posterior):
        record = one_trial(subject_id="s", treatment=Treatment.INDEPENDENT,
                           trial_index=0, features=[0.1], final_decision=1)
        with pytest.raises(ConfigurationError):
            decision_probability([record], two_member_posterior, [None])


class TestConditionOnDecision:
    # a delayed trial averages over the members whose own decision matches
    # its initial decision, or over all of them when none does
    def test_retains_consistent_member(self, two_member_posterior):
        response = EnsembleResponse(two_member_posterior.ensemble,
                                    np.array([[1.0, 0.0]]), np.array([1]))
        assert response.mask.tolist() == [[True, False]]
        assert response.count.tolist() == [1.0]

    def test_identity_when_all_consistent(self, two_member_posterior):
        # x = 0 gives every member logit 0, which decides 1
        response = EnsembleResponse(two_member_posterior.ensemble,
                                    np.array([[0.0, 0.0]]), np.array([1]))
        assert response.mask.all()
        assert response.count.tolist() == [2.0]

    def test_fallback_on_empty_filter(self):
        post = singleton_posterior([1.0, 0.0])
        response = EnsembleResponse(post.ensemble, np.array([[1.0, 0.0]]),
                                    np.array([0]))
        assert response.mask.all()
        assert response.count.tolist() == [1.0]

    def test_subset_and_nonempty(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            post = random_posterior(rng, 3, size=20)
            features = rng.random((4, 3))
            observed = rng.integers(0, 2, 4)
            response = EnsembleResponse(post.ensemble, features, observed)
            assert np.array_equal(response.count, response.mask.sum(axis=1))
            for x, kept, decision in zip(features, response.mask, observed):
                decides = expit(post.ensemble @ np.append(x, 1.0)) >= 0.5
                consistent = decides == bool(decision)
                assert kept.any()
                assert np.array_equal(kept, consistent if consistent.any()
                                      else np.ones_like(kept))


class TestPosteriorType:
    def test_ensemble_reproducible_from_seed(self):
        a = PopulationPosterior.from_moments([0.5, -0.5], [0.3, 0.4], 50, seed=77)
        b = PopulationPosterior.from_moments([0.5, -0.5], [0.3, 0.4], 50, seed=77)
        assert np.array_equal(a.ensemble, b.ensemble)
        assert a.ensemble.shape == (50, 2)

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [1e308, 0.0, 1e308],
                                         [-1e308, -1e308, 0.0]])
    def test_members_whose_logits_could_overflow_rejected(self, weights):
        # finite weights and bias whose logit overflows on some task in
        # [0, 1]^n
        with pytest.raises(ConfigurationError, match="too large"):
            PopulationPosterior.point(WeightVector(weights[:-1], bias=weights[-1]))

    def test_point_posterior_is_exact_singleton(self):
        w = WeightVector([1.0, 2.0], bias=-0.5)
        post = PopulationPosterior.point(w)
        assert np.array_equal(post.ensemble, np.array([[1.0, 2.0, -0.5]]))


class TestElboContract:
    def test_returned_posterior_not_below_initialization(self):
        rng = np.random.default_rng(29)
        tasks = rng.random((150, 2))
        labels = (rng.random(150) < expit(tasks @ [1.0, -1.0])).astype(int)
        config = _fast_config(iterations=120)
        post = fit_population(tasks, labels, config)

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
