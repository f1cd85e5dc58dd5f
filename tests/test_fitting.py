"""Nudge-parameter MLE: gradients, reparameterization, recovery, ablation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgelab import (
    BehaviorRecord,
    FitConfig,
    NudgeObjective,
    NudgeParams,
    PopulationPosterior,
    SignedSharedSignVector,
    SurrogateAI,
    SyntheticSubject,
    Treatment,
    UsageError,
    WeightVector,
    fit_nudge,
    fit_nudge_batch,
    fit_nudge_deterministic_ablation,
    generate_behavior,
    uniform_tasks,
)
from nudgelab.fitting import (
    _GRID_LO,
    _GRID_NODES,
    _GRID_STEP,
    _EnsembleResponse,
    _minimize,
)

N = 3
# the response table's grid spans shifts in [_GRID_LO, GRID_HI]; the tests
# draw shifts up to half as far again on either side, so some fall beyond it
GRID_HI = _GRID_LO + _GRID_STEP * (_GRID_NODES - 1)
BEYOND_GRID = 1.5 * max(-_GRID_LO, GRID_HI)


def make_posterior(seed=1, size=60, variance=0.3):
    mean = np.array([1.0, -0.8, 0.6, -0.3])
    return PopulationPosterior.from_moments(mean, np.full(N + 1, variance),
                                            size, seed=seed)


def make_ai():
    return SurrogateAI(WeightVector([1.2, 0.8, -1.0], bias=-0.5), top_k=2)


def make_trials(treatment, params, seed=3, n_trials=24, temperature=1.0):
    subject = SyntheticSubject(
        subject_id="subj", true_weights=WeightVector([1.0, -0.8, 0.6], bias=-0.3),
        true_params=params, treatment=treatment, noise_temperature=temperature,
        crt_score=2,
    )
    tasks = uniform_tasks(n_trials, N, seed=seed)
    return generate_behavior(subject, tasks, make_ai(), seed=seed + 1)


PARAMS_BY_TREATMENT = {
    Treatment.IMMEDIATE: NudgeParams.for_immediate(
        SignedSharedSignVector(0.8, np.array([0.4, 0.3, 0.5]))),
    Treatment.DELAYED: NudgeParams.for_delayed(
        SignedSharedSignVector(0.8, np.array([0.4, 0.3, 0.5])),
        SignedSharedSignVector(-0.6, np.array([0.3, 0.5, 0.2]))),
    Treatment.EXPLANATION: NudgeParams.for_explanation(0.7),
}


class TestGradients:
    @pytest.mark.parametrize("treatment, tabulated", [
        *[pytest.param(t, False, id=t.value) for t in PARAMS_BY_TREATMENT],
        pytest.param(Treatment.IMMEDIATE, True, id="immediate-tabulated"),
        pytest.param(Treatment.DELAYED, True, id="delayed-tabulated"),
    ])
    def test_matches_finite_differences(self, treatment, tabulated):
        # frozen ensemble makes the objective deterministic; central
        # differences must agree with the analytic gradient, which for a
        # tabulated ensemble is that of the interpolated response
        posterior = make_posterior(size=200 if tabulated else 60)
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment])
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        if tabulated:
            assert objective.response.tabulated
        rng = np.random.default_rng(31)
        h = 1e-5
        for _ in range(7):
            theta = rng.normal(0.0, 1.0, objective.n_params)
            grad = objective.value_and_gradient(theta[None, None])[1][0, 0]
            for k in range(objective.n_params):
                def value(delta, k=k):
                    t = theta.copy()
                    t[k] += delta
                    return objective.value_and_gradient(t[None, None])[0][0, 0]

                fd = (value(h) - value(-h)) / (2 * h)
                assert abs(grad[k] - fd) <= 1e-3 * max(abs(fd), abs(grad[k]), 1e-8)

    def test_l2_penalty_gradient(self):
        posterior = make_posterior()
        trials = make_trials(Treatment.DELAYED, PARAMS_BY_TREATMENT[Treatment.DELAYED])
        objective = NudgeObjective([trials], posterior.ensemble, Treatment.DELAYED,
                                   l2_penalty=0.5)
        rng = np.random.default_rng(37)
        theta = rng.normal(0.0, 1.0, objective.n_params)
        grad = objective.value_and_gradient(theta[None, None])[1][0, 0]
        h = 1e-5
        for k in range(objective.n_params):
            def value(delta, k=k):
                t = theta.copy()
                t[k] += delta
                return objective.value_and_gradient(t[None, None])[0][0, 0]

            fd = (value(h) - value(-h)) / (2 * h)
            assert abs(grad[k] - fd) <= 1e-3 * max(abs(fd), abs(grad[k]), 1e-8)


def response_objective(treatment, seed, fallback, n_trials=12):
    """An objective over an ensemble large enough to be tabulated.  With
    ``fallback`` every member decides 1 on every task, so each delayed
    trial's initial decision of 0 leaves no consistent member."""
    rng = np.random.default_rng(seed)
    mean = np.array([1.0, -0.8, 0.6, 8.0 if fallback else -0.3])
    posterior = PopulationPosterior.from_moments(mean, np.full(N + 1, 0.3), 200,
                                                 seed=seed)
    delayed = treatment == Treatment.DELAYED
    trials = [
        BehaviorRecord(
            subject_id="s", treatment=treatment, trial_index=i,
            features=rng.random(N), final_decision=int(rng.integers(2)),
            ai_recommendation=int(rng.integers(2)),
            ai_confidence=None if delayed else float(rng.uniform(0.5, 1.0)),
            initial_decision=(0 if fallback else int(rng.integers(2)))
            if delayed else None,
        )
        for i in range(n_trials)
    ]
    return NudgeObjective([trials], posterior.ensemble, treatment)


class TestResponseTable:
    @settings(max_examples=60, deadline=None)
    @given(
        treatment=st.sampled_from([Treatment.IMMEDIATE, Treatment.DELAYED]),
        seed=st.integers(0, 2**16),
        fallback=st.booleans(),
        shifts=st.lists(st.floats(-BEYOND_GRID, BEYOND_GRID), min_size=12,
                        max_size=12),
    )
    def test_matches_exact_response(self, treatment, seed, fallback, shifts):
        # beyond the grid each trial falls back to the exact response on
        # its own
        response = response_objective(treatment, seed, fallback).response
        if fallback and treatment == Treatment.DELAYED:
            assert response.mask.all()
        shift = np.array(shifts)
        p, slope = response.interpolated(shift)
        p_exact, slope_exact = response.exact(shift)
        assert np.max(np.abs(p - p_exact)) <= 1e-8
        assert np.max(np.abs(slope - slope_exact)) <= 1e-6

    def test_extreme_shifts_saturate_without_warnings(self):
        response = response_objective(Treatment.DELAYED, 3, False).response
        shift = np.repeat([[-1e6], [-800.0], [800.0], [1e6]], 12, axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, slope = response.exact(shift)
        assert np.array_equal(p, np.repeat([[0.0], [0.0], [1.0], [1.0]], 12, axis=1))
        assert not slope.any()

    @settings(max_examples=40, deadline=None)
    @given(
        treatment=st.sampled_from([Treatment.IMMEDIATE, Treatment.DELAYED]),
        seed=st.integers(0, 2**16),
        fallback=st.booleans(),
        lookups=st.lists(st.lists(st.floats(-BEYOND_GRID, BEYOND_GRID),
                                  min_size=24, max_size=24),
                         min_size=1, max_size=4),
    )
    def test_filling_on_demand_gives_the_same_bits(self, treatment, seed,
                                                   fallback, lookups):
        # a lookup fills only the cells it reads, so a cell must not depend
        # on which lookup filled it or which cells were filled with it
        lazy = response_objective(treatment, seed, fallback).response
        eager = response_objective(treatment, seed, fallback).response
        fill_table(eager, np.ones_like(eager.filled))
        for shifts in lookups:
            shift = np.reshape(shifts, (2, 12))
            for got, want in zip(lazy.interpolated(shift),
                                 eager.interpolated(shift)):
                assert np.array_equal(got, want)
        assert np.array_equal(lazy.node_p[lazy.filled], eager.node_p[lazy.filled])
        assert np.array_equal(lazy.node_slope[lazy.filled],
                              eager.node_slope[lazy.filled])

    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    def test_stacked_fit_fills_only_the_cells_it_reads(self, treatment):
        trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                  seed=s, n_trials=n)
                      for s, n in ((3, 9), (5, 14), (8, 6))]
        objective = NudgeObjective(trial_sets, make_posterior(size=200).ensemble,
                                   treatment)
        _minimize(objective, FitConfig(iterations=60, restarts=4), [1, 2, 3])
        response = objective.response
        filled = response.filled.copy()
        assert filled.any() and not filled.all()
        p, slope = response.node_p.copy(), response.node_slope.copy()
        fill_table(response, filled)
        assert np.array_equal(p[filled], response.node_p[filled])
        assert np.array_equal(slope[filled], response.node_slope[filled])
        assert np.isnan(p[~filled]).all() and np.isnan(slope[~filled]).all()

    @settings(max_examples=30, deadline=None)
    @given(
        treatment=st.sampled_from([Treatment.IMMEDIATE, Treatment.DELAYED]),
        seed=st.integers(0, 2**16),
        lookups=st.lists(st.lists(st.floats(-BEYOND_GRID, BEYOND_GRID),
                                  min_size=24, max_size=24),
                         min_size=1, max_size=4),
    )
    def test_ready_marks_intervals_with_both_ends_filled(self, treatment, seed,
                                                         lookups):
        response = response_objective(treatment, seed, False).response
        for shifts in lookups:
            response.interpolated(np.reshape(shifts, (2, 12)))
            assert np.array_equal(response.ready,
                                  response.filled[:-1] & response.filled[1:])
        # every interval of a repeated lookup is ready, so it fills nothing
        shift = np.reshape(lookups[-1], (2, 12))
        expected = response.interpolated(shift)
        filled = response.filled.copy()

        def no_fill(at):
            raise AssertionError("a ready lookup filled cells")

        response._fill = no_fill
        for got, want in zip(response.interpolated(shift), expected):
            assert np.array_equal(got, want)
        assert np.array_equal(response.filled, filled)


def fill_table(response, cells):
    """Evaluate the table cells marked in ``cells`` (nodes x T) exactly."""
    k, t = np.nonzero(cells)
    response.node_p[cells], response.node_slope[cells] = response._rows(
        t, _GRID_LO + _GRID_STEP * k)
    response.filled |= cells
    response.ready = response.filled[:-1] & response.filled[1:]


def stacked_shift(objective, theta):
    """Each trial's logit shift for stacked rows theta (R, K, P)."""
    blocks = theta.reshape(theta.shape[0], -1, 1 + objective.n)
    deltas = blocks[..., :1] * np.logaddexp(0.0, blocks[..., 1:])
    return objective.direction * (deltas[:, objective.block]
                                  * objective.features).sum(axis=2)


def scaled_params(treatment, scale):
    """PARAMS_BY_TREATMENT with every shift vector's scale multiplied."""
    params = PARAMS_BY_TREATMENT[treatment]
    if treatment == Treatment.IMMEDIATE:
        vector = params.delta_direct
        return NudgeParams.for_immediate(
            SignedSharedSignVector(scale * vector.scale, vector.magnitudes))
    if treatment == Treatment.DELAYED:
        return NudgeParams.for_delayed(*(
            SignedSharedSignVector(scale * v.scale, v.magnitudes)
            for v in (params.delta_affirm, params.delta_contra)))
    return params


# the largest scale test_each_subject_fits_as_if_alone multiplies the true
# shift vectors by
LARGEST_SCALE = 12.0


class TestStackedFit:
    @settings(max_examples=24, deadline=None)
    @given(
        case=st.sampled_from(["immediate", "delayed", "explanation", "ablation"]),
        members=st.sampled_from([60, 200]),
        seed=st.integers(0, 2**16),
        sizes=st.lists(st.integers(3, 20), min_size=2, max_size=4),
        scale=st.floats(0.5, LARGEST_SCALE),
    )
    def test_each_subject_fits_as_if_alone(self, case, members, seed, sizes,
                                           scale):
        # a subject's result must not depend on which subjects share its
        # stacked loop, nor on their order; large scales push shifts off
        # the response table's grid
        treatment = (Treatment.DELAYED if case == "ablation"
                     else Treatment(case))
        model = (PopulationPosterior.point(WeightVector([1.0, -0.8, 0.6], bias=-0.3))
                 if case == "ablation" else make_posterior(seed=seed, size=members))
        trial_sets = [make_trials(treatment, scaled_params(treatment, scale),
                                  seed=seed + k, n_trials=n)
                      for k, n in enumerate(sizes)]
        seeds = [seed + 7 * k for k in range(len(sizes))]
        config = FitConfig(iterations=40, restarts=4, learning_rate=0.3)
        alone = [fit_nudge_batch([trials], model, treatment, config, [s])[0]
                 for trials, s in zip(trial_sets, seeds)]
        stacked = fit_nudge_batch(trial_sets, model, treatment, config, seeds)
        reverse = fit_nudge_batch(trial_sets[::-1], model, treatment, config,
                                  seeds[::-1])[::-1]
        for single, *others in zip(alone, stacked, reverse):
            for other in others:
                assert np.array_equal(single.theta, other.theta)
                assert single.train_nll == other.train_nll
                assert single.restart_index == other.restart_index
                assert single.converged == other.converged

    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    def test_large_scales_reach_beyond_the_grid(self, treatment):
        # the test above covers the exact fallback of the tabulated response
        # only if its largest scale drives some shifts past the grid
        interpolated = _EnsembleResponse.interpolated
        largest = []

        def recording(self, shift):
            largest.append(np.abs(shift).max())
            return interpolated(self, shift)

        trial_sets = [make_trials(treatment,
                                  scaled_params(treatment, LARGEST_SCALE),
                                  seed=k, n_trials=20) for k in range(3)]
        config = FitConfig(iterations=40, restarts=4, learning_rate=0.3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_EnsembleResponse, "interpolated", recording)
            fit_nudge_batch(trial_sets, make_posterior(seed=0, size=200),
                            treatment, config, [0, 7, 14])
        assert len(largest) == config.iterations + 1
        assert max(largest) > GRID_HI

    @pytest.mark.parametrize("treatment", list(PARAMS_BY_TREATMENT))
    def test_row_counts_share_one_objective(self, treatment):
        # an objective keeps its group-sum indices per row count; evaluating
        # R = 1, then R = 3, then R = 1 rows must give the bits of fresh
        # objectives
        trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                  seed=s, n_trials=n)
                      for s, n in ((3, 9), (5, 14), (8, 6))]
        ensemble = make_posterior(size=200).ensemble
        shared = NudgeObjective(trial_sets, ensemble, treatment)
        theta = np.random.default_rng(53).normal(0.0, 1.0,
                                                 (3, 3, shared.n_params))
        for rows in (theta[:1], theta, theta[:1]):
            fresh = NudgeObjective(trial_sets, ensemble, treatment)
            for got, want in zip(shared.value_and_gradient(rows),
                                 fresh.value_and_gradient(rows)):
                assert np.array_equal(got, want)
            fresh = NudgeObjective(trial_sets, ensemble, treatment)
            for got, want in zip(shared.fit_summary(rows),
                                 fresh.fit_summary(rows)):
                assert np.array_equal(got, want)

    def test_one_subject_calls_are_batch_calls(self):
        point = WeightVector([1.0, -0.8, 0.6], bias=-0.3)
        trials = make_trials(Treatment.DELAYED,
                             PARAMS_BY_TREATMENT[Treatment.DELAYED])
        config = FitConfig(iterations=60, restarts=2, seed=4)
        for single, model in (
            (fit_nudge(trials, make_posterior(), Treatment.DELAYED, config),
             make_posterior()),
            (fit_nudge_deterministic_ablation(trials, point, Treatment.DELAYED,
                                              config),
             PopulationPosterior.point(point)),
        ):
            (batch,) = fit_nudge_batch([trials], model, Treatment.DELAYED, config)
            assert np.array_equal(single.theta, batch.theta)
            assert single.train_nll == batch.train_nll

    def test_empty_batch_and_seed_count(self):
        assert fit_nudge_batch([], make_posterior(), Treatment.IMMEDIATE) == []
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        with pytest.raises(UsageError):
            fit_nudge_batch([trials, trials], make_posterior(),
                            Treatment.IMMEDIATE, seeds=[1])

    def _recorded_fit(self, trial_sets, config, seeds, forced=None):
        """Fit while recording the stacked rows the Adam loop evaluates;
        ``forced`` = (call, restart, subject) makes that row's value NaN
        from that call on."""
        value_and_gradient = NudgeObjective.value_and_gradient
        seen = []

        def recording(self, theta):
            value, grad = value_and_gradient(self, theta)
            seen.append(theta.copy())
            if forced is not None and len(seen) > forced[0]:
                value = value.copy()
                value[forced[1], forced[2]] = np.nan
            return value, grad

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(NudgeObjective, "value_and_gradient", recording)
            results = fit_nudge_batch(trial_sets, make_posterior(),
                                      Treatment.IMMEDIATE, config, seeds)
        return results, seen

    def test_non_finite_row_is_abandoned_alone(self):
        trial_sets = [make_trials(Treatment.IMMEDIATE,
                                  PARAMS_BY_TREATMENT[Treatment.IMMEDIATE],
                                  seed=s) for s in (3, 5, 8)]
        config = FitConfig(iterations=30, restarts=3)
        seeds = [1, 2, 3]
        free, free_seen = self._recorded_fit(trial_sets, config, seeds)
        forced, forced_seen = self._recorded_fit(trial_sets, config, seeds,
                                                 forced=(10, 1, 0))
        assert len(forced_seen) == len(free_seen) == config.iterations + 1
        for call, (a, b) in enumerate(zip(free_seen, forced_seen)):
            others = np.ones(a.shape[:2], dtype=bool)
            others[1, 0] = False
            assert np.array_equal(a[others], b[others])
            if call >= 10:
                assert np.array_equal(b[1, 0], forced_seen[10][1, 0])
        for a, b in zip(free[1:], forced[1:]):
            assert np.array_equal(a.theta, b.theta)
            assert a.train_nll == b.train_nll
        # the untabulated, unpenalized objective is the train NLL itself
        # (fit_summary), and the forced fit chose among fewer iterates
        assert forced[0].train_nll >= free[0].train_nll

    def test_subject_with_no_finite_row_is_rejected(self):
        trial_sets = [make_trials(Treatment.IMMEDIATE,
                                  PARAMS_BY_TREATMENT[Treatment.IMMEDIATE],
                                  seed=s) for s in (3, 5)]
        config = FitConfig(iterations=5, restarts=1)
        with pytest.raises(UsageError):
            self._recorded_fit(trial_sets, config, [1, 2], forced=(0, 0, 1))

    @pytest.mark.parametrize("treatment, members", [
        pytest.param(Treatment.IMMEDIATE, 60, id="immediate"),
        pytest.param(Treatment.IMMEDIATE, 200, id="immediate-tabulated"),
        pytest.param(Treatment.DELAYED, 200, id="delayed-tabulated"),
        pytest.param(Treatment.EXPLANATION, 60, id="explanation"),
    ])
    def test_stacked_gradient_matches_finite_differences(self, treatment,
                                                         members):
        # R = 3 rows of K = 3 subjects of different lengths; row 0 has large
        # scales, so some of its shifts leave the table's grid.  Each
        # (restart, subject) value moves only with its own parameters.
        posterior = make_posterior(size=members)
        trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                  seed=s, n_trials=n)
                      for s, n in ((3, 9), (5, 14), (8, 6))]
        objective = NudgeObjective(trial_sets, posterior.ensemble, treatment,
                                   l2_penalty=0.1)
        rng = np.random.default_rng(47)
        theta = rng.normal(0.0, 1.0, (3, 3, objective.n_params))
        tabulated = members >= 128
        if treatment != Treatment.EXPLANATION:
            assert objective.response.tabulated == tabulated
            theta[0, :, ::1 + objective.n] = 60.0
            shift = np.abs(stacked_shift(objective, theta))
            assert np.any(shift > GRID_HI) and np.any(shift < GRID_HI)
        value, grad = objective.value_and_gradient(theta)
        assert value.shape == (3, 3) and grad.shape == theta.shape
        h = 1e-5
        for index in np.ndindex(theta.shape):
            values = []
            for delta in (h, -h):
                moved = theta.copy()
                moved[index] += delta
                values.append(objective.value_and_gradient(moved)[0])
            row = index[:2]
            fd = (values[0][row] - values[1][row]) / (2 * h)
            assert abs(grad[index] - fd) <= 1e-3 * max(abs(fd), abs(grad[index]),
                                                       1e-8)
            others = np.ones((3, 3), dtype=bool)
            others[row] = False
            assert np.array_equal(values[0][others], value[others])


class TestReparameterization:
    @pytest.mark.parametrize("treatment", list(PARAMS_BY_TREATMENT))
    def test_round_trip_satisfies_invariants(self, treatment):
        posterior = make_posterior()
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment])
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        rng = np.random.default_rng(41)
        for _ in range(25):
            params = objective.params_from_theta(
                rng.normal(0.0, 2.0, objective.n_params)
            )
            for vec in (params.delta_direct, params.delta_affirm,
                        params.delta_contra):
                if vec is not None:
                    delta = vec.realized
                    assert np.all(np.outer(delta, delta) >= 0.0)
                    assert np.all(vec.magnitudes >= 0.0)
            if params.delta_exp is not None:
                assert 0.0 <= params.delta_exp <= 1.0


class TestFitNudge:
    def test_empty_trials_rejected(self):
        with pytest.raises(UsageError):
            fit_nudge([], make_posterior(), Treatment.IMMEDIATE)

    def test_bitwise_reproducible(self):
        posterior = make_posterior()
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        config = FitConfig(iterations=120, restarts=2, seed=5)
        a = fit_nudge(trials, posterior, Treatment.IMMEDIATE, config)
        b = fit_nudge(trials, posterior, Treatment.IMMEDIATE, config)
        assert np.array_equal(a.theta, b.theta)
        assert a.train_nll == b.train_nll

    def test_result_beats_every_restart_initialization(self):
        posterior = make_posterior()
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        config = FitConfig(iterations=150, restarts=4, seed=5)
        result = fit_nudge(trials, posterior, Treatment.IMMEDIATE, config)
        objective = NudgeObjective([trials], posterior.ensemble, Treatment.IMMEDIATE,
                                   config.clip_eps)
        for restart in range(config.restarts):
            init_value, _ = objective.value_and_gradient(
                objective.initial_theta(restart, config.seed)[None, None]
            )
            assert result.train_nll <= init_value[0, 0] + 1e-12

    def test_zero_nudge_data_yields_small_delta(self):
        # finals sampled from the model's own unnudged probabilities: the
        # fitter must not hallucinate an assistance effect
        from nudgelab import (
            BehaviorRecord, SurrogateAI, ai_recommend, predict_independent,
        )

        posterior = make_posterior(variance=0.15, size=200)
        ai = SurrogateAI(WeightVector([-0.8, -1.0, 0.9], bias=0.45), top_k=2)
        tasks = uniform_tasks(1500, N, seed=77)
        rng = np.random.default_rng(123)
        trials = []
        for i, task in enumerate(tasks):
            p, _ = predict_independent(posterior, task)
            rec, conf = ai_recommend(ai, task)
            trials.append(BehaviorRecord(
                subject_id="s", treatment=Treatment.IMMEDIATE, trial_index=i,
                features=task.features, final_decision=int(rng.random() < p),
                ai_recommendation=rec, ai_confidence=conf,
            ))
        result = fit_nudge(trials, posterior, Treatment.IMMEDIATE,
                           FitConfig(seed=2, iterations=600, restarts=2))
        assert result.params.delta_direct.norm <= 0.2

    def test_recovers_positive_trust_sign_and_norm(self):
        true = NudgeParams.for_immediate(
            SignedSharedSignVector(1.5, np.array([0.5, 0.5, 0.5])))
        posterior = make_posterior(variance=0.15)
        trials = make_trials(Treatment.IMMEDIATE, true, n_trials=30,
                             temperature=0.5)
        result = fit_nudge(trials, posterior, Treatment.IMMEDIATE,
                           FitConfig(seed=2, iterations=800, l2_penalty=0.05))
        fitted = result.params.delta_direct
        assert fitted.sign == 1
        assert abs(fitted.norm - true.delta_direct.norm) <= 0.5 * true.delta_direct.norm

    def test_extreme_attention_recovered(self):
        true = NudgeParams.for_explanation(1.0)
        posterior = make_posterior(variance=0.15)
        trials = make_trials(Treatment.EXPLANATION, true, n_trials=30,
                             temperature=0.5)
        result = fit_nudge(trials, posterior, Treatment.EXPLANATION,
                           FitConfig(seed=2, iterations=800))
        assert result.params.delta_exp >= 0.9

    def test_treatment_mismatch_rejected(self):
        posterior = make_posterior()
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        with pytest.raises(UsageError):
            fit_nudge(trials, posterior, Treatment.DELAYED)


class TestDeterministicAblation:
    def test_collapsed_ensemble_matches_point_model(self):
        # posterior whose single member *is* the point model: both paths
        # must produce the same likelihood surface, hence the same fit
        point = WeightVector([1.0, -0.8, 0.6], bias=-0.3)
        singleton = PopulationPosterior.point(point)
        trials = make_trials(Treatment.DELAYED,
                             PARAMS_BY_TREATMENT[Treatment.DELAYED])
        config = FitConfig(iterations=200, restarts=2, seed=9)
        via_posterior = fit_nudge(trials, singleton, Treatment.DELAYED, config)
        via_point = fit_nudge_deterministic_ablation(trials, point,
                                                     Treatment.DELAYED, config)
        assert via_posterior.train_nll == via_point.train_nll
        assert np.array_equal(via_posterior.theta, via_point.theta)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16), n_trials=st.integers(4, 30))
    def test_point_model_fit_is_exact(self, seed, n_trials):
        # a one-member ensemble is never tabulated: the ablation's fit must
        # never evaluate the interpolated response
        point = WeightVector([1.0, -0.8, 0.6], bias=-0.3)
        trials = make_trials(Treatment.DELAYED,
                             PARAMS_BY_TREATMENT[Treatment.DELAYED],
                             seed=seed, n_trials=n_trials)
        config = FitConfig(iterations=60, restarts=3, seed=seed)

        def interpolated(self, shift):
            raise AssertionError("the point model's response was interpolated")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_EnsembleResponse, "interpolated", interpolated)
            fit_nudge_deterministic_ablation(trials, point, Treatment.DELAYED,
                                             config)

    def test_restricted_to_delayed(self):
        point = WeightVector([1.0, -0.8, 0.6], bias=-0.3)
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        with pytest.raises(UsageError):
            fit_nudge_deterministic_ablation(trials, point, Treatment.IMMEDIATE)


class TestBatchConsistency:
    @pytest.mark.parametrize("treatment", list(PARAMS_BY_TREATMENT))
    def test_objective_probabilities_match_predictors(self, treatment):
        # the vectorized fitting path and the per-record scoring path must
        # agree on every trial probability
        from nudgelab import decision_probability

        posterior = make_posterior()
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment])
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        rng = np.random.default_rng(43)
        theta = rng.normal(0.0, 1.0, objective.n_params)
        params = objective.params_from_theta(theta)
        batch = objective.probabilities(theta[None, None])[0]
        for prob, rec in zip(batch, trials):
            single = decision_probability(rec, posterior, params)
            assert prob == pytest.approx(single, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        treatment=st.sampled_from(list(PARAMS_BY_TREATMENT)),
        members=st.sampled_from([60, 200]),
        seed=st.integers(0, 2**16),
        scale=st.floats(0.5, 8.0),
    )
    def test_probabilities_match_predictors_at_any_shift(self, treatment,
                                                         members, seed, scale):
        # on both sides of _TABULATE_MIN_MEMBERS, and at shifts far beyond
        # the table's grid, the exact stacked path equals the per-record one
        from nudgelab import decision_probability

        posterior = make_posterior(seed=seed, size=members)
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                             seed=seed)
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        theta = scale * np.random.default_rng(seed).normal(
            0.0, 1.0, (3, 1, objective.n_params))
        for row, probs in zip(theta, objective.probabilities(theta)):
            params = objective.params_from_theta(row[0])
            for prob, rec in zip(probs, trials):
                single = decision_probability(rec, posterior, params, clip_eps=0.0)
                assert prob == pytest.approx(single, abs=1e-12)
