"""Nudge-parameter MLE: gradients, reparameterization, recovery, ablation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgelab import (
    Branch,
    FitConfig,
    NudgeObjective,
    NudgeParams,
    PopulationPosterior,
    SignedSharedSignVector,
    SurrogateAI,
    SyntheticSubject,
    Treatment,
    Trials,
    UsageError,
    WeightVector,
    fit_nudge,
    fit_nudge_batch,
    generate_behavior,
    uniform_tasks,
)
from nudgelab import fitting
from nudgelab.nudge import BRANCHES, EnsembleResponse, decision_probability
from nudgelab.fitting import (
    _BLOCK,
    _GRID_LO,
    _GRID_NODES,
    _GRID_STEP,
    _EnsembleResponse,
    _minimize,
)

import per_record
from conftest import singleton_posterior, trials_of, unassisted

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
    trials = trials_of([
        dict(
            subject_id="s", treatment=treatment, trial_index=i,
            features=rng.random(N), final_decision=int(rng.integers(2)),
            ai_recommendation=int(rng.integers(2)),
            ai_confidence=None if delayed else float(rng.uniform(0.5, 1.0)),
            initial_decision=(0 if fallback else int(rng.integers(2)))
            if delayed else None,
        )
        for i in range(n_trials)
    ])
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
            assert response.members_of(np.arange(len(response.features)))[1].all()
        shift = np.array(shifts)
        p, slope = response.interpolated(shift)
        p_exact, slope_exact = response.exact(shift)
        assert np.max(np.abs(p - p_exact)) <= 1e-8
        assert np.max(np.abs(slope - slope_exact)) <= 1e-6

    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    def test_no_rows_by_members_array_is_kept(self, treatment):
        # at S = 1,000 a response keeps its distinct rows' features, not
        # their logits: no array it holds, the table a fit has started
        # included, has rows x S elements, even after an evaluation off the
        # grid, and a one-member ensemble holds only its T logits beside its
        # inputs
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment], n_trials=40)
        model = make_posterior(size=1000)
        objective = NudgeObjective([trials], model.ensemble, treatment)
        objective.value_and_gradient(np.zeros((2, 1, objective.n_params)))
        objective.response.interpolated(np.linspace(-40.0, 40.0, 40)[None])
        plain = EnsembleResponse(model.ensemble, trials.features,
                                 objective.layout.initial)
        inputs = {"members", "features", "columns"} | (
            {"initial"} if treatment == Treatment.DELAYED else set())
        assert objective.response.built > 0
        for response in (objective.response, plain):
            rows = len(response.features)
            assert rows == 40
            sizes = {name: value.size for name, value in vars(response).items()
                     if isinstance(value, np.ndarray)}
            assert inputs <= set(sizes)
            assert max(sizes.values()) < rows * 1000
        point = PopulationPosterior.point(WeightVector([1.0, -0.8, 0.6], bias=-0.3))
        one = NudgeObjective([trials], point.ensemble, treatment).response
        arrays = {name for name, value in vars(one).items()
                  if isinstance(value, np.ndarray)}
        assert arrays == inputs | {"logits"}
        assert one.logits.shape == (40,)

    @pytest.mark.parametrize("treatment, fallback", [
        pytest.param(Treatment.IMMEDIATE, False, id="immediate"),
        pytest.param(Treatment.DELAYED, False, id="delayed"),
        pytest.param(Treatment.DELAYED, True, id="delayed-fallback"),
    ])
    def test_interpolant_is_within_its_error_bound(self, treatment, fallback):
        # the quintic Hermite error is at most 5.7e-10 in probability; a
        # sweep across the grid reads every interval at several points
        # (each trial at its own offsets) and some shifts beyond the grid
        response = response_objective(treatment, 11, fallback).response
        offsets = np.random.default_rng(5).uniform(0.0, _GRID_STEP, 12)
        shift = np.linspace(-BEYOND_GRID, BEYOND_GRID, 4001)[:, None] + offsets
        p, _ = response.interpolated(shift)
        p_exact, _ = response.exact(shift)
        assert (response.slot >= 0).all()
        assert np.max(np.abs(p - p_exact)) <= 1e-9

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
    def test_building_on_demand_gives_the_same_bits(self, treatment, seed,
                                                    fallback, lookups):
        # a lookup builds only the blocks it reads, so a block must not
        # depend on which lookup built it or which blocks were built with it
        lazy = response_objective(treatment, seed, fallback).response
        eager = build_table(response_objective(treatment, seed, fallback).response)
        for shifts in lookups:
            shift = np.reshape(shifts, (2, 12))
            for got, want in zip(lazy.interpolated(shift),
                                 eager.interpolated(shift)):
                assert np.array_equal(got, want)
        table = dense_table(lazy)
        ready = lazy.slot >= 0
        assert np.array_equal(table[ready], dense_table(eager)[ready])
        assert np.isnan(table[~ready]).all()

    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    def test_stacked_fit_builds_only_the_blocks_it_reads(self, treatment):
        trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                  seed=s, n_trials=n)
                      for s, n in ((3, 9), (5, 14), (8, 6))]
        objective, fresh = (NudgeObjective(trial_sets,
                                           make_posterior(size=200).ensemble,
                                           treatment) for _ in range(2))
        _minimize(objective, FitConfig(iterations=60, restarts=4), [1, 2, 3])
        response = objective.response
        ready = response.slot >= 0
        assert ready.any() and not ready.all()
        table, eager = dense_table(response), dense_table(build_table(fresh.response))
        assert np.array_equal(table[ready], eager[ready])
        assert np.isnan(table[~ready]).all()

    @settings(max_examples=30, deadline=None)
    @given(
        treatment=st.sampled_from([Treatment.IMMEDIATE, Treatment.DELAYED]),
        seed=st.integers(0, 2**16),
        lookups=st.lists(st.lists(st.floats(-BEYOND_GRID, BEYOND_GRID),
                                  min_size=24, max_size=24),
                         min_size=1, max_size=4),
    )
    def test_ready_marks_the_blocks_each_lookup_reads(self, treatment, seed,
                                                      lookups):
        # per trial, a lookup builds exactly the _BLOCK intervals of each
        # block it reads on the grid, one packed row each
        response = response_objective(treatment, seed, False).response
        blocks = np.zeros(((_GRID_NODES - 1) // _BLOCK, 12), dtype=bool)
        for shifts in lookups:
            shift = np.reshape(shifts, (2, 12))
            node = np.floor((shift - _GRID_LO) / _GRID_STEP)
            read = (node >= 0) & (node <= _GRID_NODES - 2)
            trial = np.broadcast_to(np.arange(12), shift.shape)
            blocks[node[read].astype(int) // _BLOCK, trial[read]] = True
            response.interpolated(shift)
            ready = (response.slot >= 0).reshape(_GRID_NODES - 1, 12)
            assert np.array_equal(ready, np.repeat(blocks, _BLOCK, axis=0))
            assert response.built == _BLOCK * blocks.sum()
        # every interval of a repeated lookup is ready, so it builds nothing
        expected = response.interpolated(shift)

        def no_build(at):
            raise AssertionError("a ready lookup built blocks")

        response._build = no_build
        for got, want in zip(response.interpolated(shift), expected):
            assert np.array_equal(got, want)

    def test_block_edges_and_the_last_interval_give_the_eager_bits(self):
        # shifts just below, at and just above every node that starts a
        # block, and in the last interval just below the grid's end
        edges = _GRID_LO + _GRID_STEP * np.arange(0, _GRID_NODES, _BLOCK)
        shifts = np.concatenate([edges - 1e-9, edges, edges + 1e-9,
                                 [GRID_HI - 1e-9, GRID_HI - 0.5 * _GRID_STEP]])
        node = np.floor((shifts - _GRID_LO) / _GRID_STEP)
        assert {0, _BLOCK - 1, _BLOCK, _GRID_NODES - 2} <= set(node.tolist())
        for treatment in (Treatment.IMMEDIATE, Treatment.DELAYED):
            eager = build_table(response_objective(treatment, 7, False).response)
            for shift in shifts:
                lazy = response_objective(treatment, 7, False).response
                shift = np.full((1, 12), shift)
                for got, want in zip(lazy.interpolated(shift),
                                     eager.interpolated(shift)):
                    assert np.array_equal(got, want)

    def test_blocks_divide_the_grid(self):
        assert (_GRID_NODES - 1) % _BLOCK == 0


def build_table(response):
    """``response`` with every block of its table built."""
    response._build(np.arange(response.slot.size))
    return response


def dense_table(response):
    """The packed table as (intervals, 6) coefficient rows, interval-major,
    NaN where no block is built; the packed rows must be exactly the built
    intervals' rows, one each."""
    ready = response.slot >= 0
    assert np.array_equal(np.sort(response.slot[ready]), np.arange(response.built))
    table = np.full((response.slot.size, 6), np.nan)
    table[ready] = response.coef[response.slot[ready]]
    return table


def stacked_shift(objective, theta):
    """Each trial's logit shift for stacked rows theta (R, K, P)."""
    blocks = theta.reshape(theta.shape[0], -1, 1 + objective.n)
    deltas = blocks[..., :1] * np.logaddexp(0.0, blocks[..., 1:])
    layout = objective.layout
    return layout.direction * (deltas[:, layout.block]
                               * layout.features).sum(axis=2)


def scaled_params(treatment, scale):
    """PARAMS_BY_TREATMENT with every shift vector's scale multiplied."""
    params = PARAMS_BY_TREATMENT[treatment]
    if treatment == Treatment.IMMEDIATE:
        vector = params[Branch.DIRECT]
        return NudgeParams.for_immediate(
            SignedSharedSignVector(scale * vector.scale, vector.magnitudes))
    if treatment == Treatment.DELAYED:
        return NudgeParams.for_delayed(*(
            SignedSharedSignVector(scale * v.scale, v.magnitudes)
            for v in params.values))
    return params


# the largest scale test_each_subject_fits_as_if_alone multiplies the true
# shift vectors by
LARGEST_SCALE = 12.0


class TestEvaluationOracle:
    # each evaluation of the shift-vector objective returns the bits of its
    # first formulation (per_record): the shift summed over the feature
    # axis, the member loop for every ensemble and the table's six
    # coefficient takes, for several row and subject counts
    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    @pytest.mark.parametrize("members, spread, beyond_grid", [
        pytest.param(200, 1.0, False, id="table-on-grid"),
        pytest.param(200, 12.0, True, id="table-off-grid"),
        pytest.param(60, 3.0, None, id="member-loop"),
        pytest.param(1, 3.0, None, id="one-member"),
    ])
    def test_value_and_gradient_keep_their_bits(self, treatment, members, spread,
                                                beyond_grid):
        model = (PopulationPosterior.point(WeightVector([1.0, -0.8, 0.6], bias=-0.3))
                 if members == 1 else make_posterior(seed=members, size=members))
        for rows, sizes, l2 in ((1, (12,), 0.0), (3, (9, 14, 6), 0.05),
                                (4, (5, 20, 3, 11), 0.0)):
            trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                      seed=rows + k, n_trials=n)
                          for k, n in enumerate(sizes)]
            new, old = (NudgeObjective(trial_sets, model.ensemble, treatment,
                                       l2_penalty=l2) for _ in range(2))
            assert new.response.tabulated == (members >= 128)
            theta = np.random.default_rng(rows).normal(
                0.0, spread, (rows, len(sizes), new.n_params))
            blocks = theta.reshape(rows, -1, 1 + new.n)
            deltas = blocks[..., :1] * np.logaddexp(0.0, blocks[..., 1:])
            shift = per_record.layout_shift(old.layout, deltas)
            assert np.array_equal(new.layout.shift(deltas), shift)
            assert np.array_equal(new.layout.shift(deltas[0]), shift[0])
            if beyond_grid is not None:
                assert (np.abs(shift).max() > GRID_HI) == beyond_grid
            # twice, so the second evaluation reads blocks the first built
            for _ in range(2):
                got = new.value_and_gradient(theta)
                want = per_record.objective_value_and_gradient(old, theta)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("treatment", [Treatment.IMMEDIATE, Treatment.DELAYED])
    def test_one_member_response_is_the_member_loop(self, treatment):
        # the one-member response, saturated shifts included, and without
        # the overflow warning of e^-x
        point = PopulationPosterior.point(WeightVector([1.0, -0.8, 0.6], bias=-0.3))
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment], n_trials=12)
        response = NudgeObjective([trials], point.ensemble, treatment).response
        shift = np.concatenate([
            np.repeat([[-1e6], [-800.0], [0.0], [800.0], [1e6]], 12, axis=1),
            np.random.default_rng(2).normal(0.0, 5.0, (3, 12))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = response.exact(shift)
        for a, b in zip(got, per_record.member_loop(response, shift)):
            assert np.array_equal(a, b)


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
        config = FitConfig(iterations=40, restarts=4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_LEARNING_RATE", 0.3)
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
    def test_copies_of_a_subject_share_its_rows_and_blocks(self, treatment):
        # K copies of one subject stack K times its trials but keep one row
        # per distinct trial, whose table blocks every copy reads; each copy
        # fits to the bits it gets alone.  At this seed both treatments'
        # fits reach shifts past the grid (|c| 31 and 36).
        trials = make_trials(treatment, scaled_params(treatment, LARGEST_SCALE),
                             seed=3, n_trials=14)
        model = make_posterior(size=200)
        seeds = [1, 2, 3, 4]
        alone, stacked = (NudgeObjective(sets, model.ensemble, treatment)
                          for sets in ([trials], [trials] * len(seeds)))
        rows = len(alone.response.features)
        assert rows == len(np.unique(trials.features, axis=0)) == 14
        assert np.array_equal(stacked.response.members_of(np.arange(rows))[0],
                              alone.response.members_of(np.arange(rows))[0])
        assert np.array_equal(stacked.response.columns,
                              np.tile(alone.response.columns, len(seeds)))
        config = FitConfig(iterations=40, restarts=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_LEARNING_RATE", 0.3)
            _minimize(stacked, config, seeds)
            fits = fit_nudge_batch([trials] * len(seeds), model, treatment, config,
                                   seeds)
            for fit, s in zip(fits, seeds):
                single = fit_nudge_batch([trials], model, treatment, config, [s])[0]
                assert np.array_equal(fit.theta, single.theta)
                assert fit.train_nll == single.train_nll
        response = stacked.response
        ready = (response.slot >= 0).reshape(-1, _BLOCK, rows)
        assert ready.any()
        # a block is built whole or not at all, with _BLOCK packed rows
        assert np.array_equal(ready.all(axis=1), ready.any(axis=1))
        assert response.built == _BLOCK * ready.all(axis=1).sum()
        dense_table(response)

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
        config = FitConfig(iterations=40, restarts=4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fitting, "_LEARNING_RATE", 0.3)
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
            (fit_nudge(trials, PopulationPosterior.point(point), Treatment.DELAYED,
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
        # and the dropped row is counted against its subject only
        assert [r.abandoned_restarts for r in free] == [0, 0, 0]
        assert [r.abandoned_restarts for r in forced] == [1, 0, 0]

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
        if treatment == Treatment.EXPLANATION:
            # the attention weight's penalty is finite only inside (0, 1)
            theta = rng.uniform(0.0, 1.0, theta.shape)
        else:
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


def explanation_trials(seed, n_trials, pull):
    """One subject's explanation trials whose final decisions follow the
    highlighted features' response (``pull`` "focused"), the ignored
    features' one ("ignored"), or are random ("random").  The first two
    put the unpenalized optimum at attention 1 and 0."""
    rng = np.random.default_rng(seed)
    trials = trials_of([
        dict(subject_id="s", treatment=Treatment.EXPLANATION,
             trial_index=i, features=rng.random(N),
             final_decision=int(rng.integers(2)),
             explanation_mask=rng.integers(0, 2, N))
        for i in range(n_trials)
    ])
    if pull == "random":
        return trials
    objective = NudgeObjective([trials], make_posterior().ensemble,
                               Treatment.EXPLANATION)
    toward = objective.mean_focused - objective.mean_ignored
    if pull == "ignored":
        toward = -toward
    return Trials(subject_id=trials.subject_id, treatment=trials.treatment,
                  trial_index=trials.trial_index, features=trials.features,
                  final_decision=(toward > 0.0).astype(int),
                  explanation_mask=trials.explanation_mask)


class TestAttentionSolve:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        subjects=st.lists(st.tuples(st.integers(3, 30),
                                    st.sampled_from(["focused", "ignored",
                                                     "random"])),
                          min_size=1, max_size=3),
        l2=st.sampled_from([0.0, 1e-3, 0.1, 2.0]),
    )
    def test_solution_is_the_minimum(self, seed, subjects, l2):
        # each subject's attention satisfies the KKT conditions of its
        # penalized NLL on [0, 1], and no point of a fine grid is lower
        trial_sets = [explanation_trials(seed + k, n, pull)
                      for k, (n, pull) in enumerate(subjects)]
        posterior = make_posterior()
        results = fit_nudge_batch(trial_sets, posterior, Treatment.EXPLANATION,
                                  FitConfig(l2_penalty=l2))
        grid = np.linspace(0.0, 1.0, 2001)
        for trials, (_, pull), result in zip(trial_sets, subjects, results):
            objective = NudgeObjective([trials], posterior.ensemble,
                                       Treatment.EXPLANATION, l2_penalty=l2)
            attention = result.params[Branch.EXP]
            assert result.theta[0] == attention and result.restart_index == 0
            first, second = (d[0] for d in objective.attention_derivatives(
                np.array([attention])))
            if attention == 0.0:
                assert l2 == 0.0 and first >= 0.0
            elif attention == 1.0:
                assert l2 == 0.0 and first <= 0.0
            else:
                assert abs(first) <= 1e-8 * max(1.0, second)
            # the convergence check reads the penalized gradient, projected
            # on [0, 1], which vanishes at a bound optimum too
            assert result.converged
            if l2 == 0.0 and pull != "random":
                assert attention == (1.0 if pull == "focused" else 0.0)
            with np.errstate(divide="ignore"):
                values = objective.value_and_gradient(grid[:, None, None])[0]
            value = objective.value_and_gradient(np.array([[[attention]]]))[0]
            assert value[0, 0] <= values.min() + 1e-12


    def test_exact_solve_with_a_penalty_reads_converged(self):
        # converged judges the objective the solve minimized, penalty included
        trial_sets = [make_trials(Treatment.EXPLANATION,
                                  PARAMS_BY_TREATMENT[Treatment.EXPLANATION],
                                  seed=seed, n_trials=30) for seed in range(4)]
        results = fit_nudge_batch(trial_sets, make_posterior(),
                                  Treatment.EXPLANATION, FitConfig(l2_penalty=0.1))
        assert all(0.0 < r.params[Branch.EXP] < 1.0 for r in results)
        assert all(r.converged for r in results)


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
            assert params.treatment == treatment
            for branch, value in zip(BRANCHES[treatment], params.values):
                if branch == Branch.EXP:
                    assert 0.0 <= value <= 1.0
                else:
                    delta = value.realized
                    assert np.all(np.outer(delta, delta) >= 0.0)
                    assert np.all(value.magnitudes >= 0.0)


    @settings(max_examples=15, deadline=None)
    @given(treatment=st.sampled_from([Treatment.IMMEDIATE, Treatment.DELAYED]),
           seed=st.integers(0, 2**16), n_subjects=st.integers(1, 3),
           n_trials=st.integers(2, 12), members=st.sampled_from([1, 40]))
    def test_fitted_vectors_share_one_sign(self, treatment, seed, n_subjects,
                                           n_trials, members):
        # random data, not drawn from the model: every fitted shift vector
        # still has delta_i * delta_j >= 0
        rng = np.random.default_rng(seed)
        trial_sets = [trials_of([
            dict(subject_id=f"s{k}", treatment=treatment, trial_index=i,
                 features=rng.random(N), final_decision=int(rng.integers(2)),
                 ai_recommendation=int(rng.integers(2)),
                 ai_confidence=(float(rng.uniform(0.5, 1.0))
                                if treatment == Treatment.IMMEDIATE else None),
                 initial_decision=(int(rng.integers(2))
                                   if treatment == Treatment.DELAYED else None))
            for i in range(n_trials)]) for k in range(n_subjects)]
        results = fit_nudge_batch(trial_sets, make_posterior(seed=seed, size=members),
                                  treatment, FitConfig(iterations=30, restarts=3))
        for result in results:
            params = result.params
            for vec in params.values:
                delta = vec.realized
                assert np.all(np.outer(delta, delta) >= 0.0)


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
        objective = NudgeObjective([trials], posterior.ensemble, Treatment.IMMEDIATE)
        for restart in range(config.restarts):
            init_value, _ = objective.value_and_gradient(
                objective.initial_theta(restart, config.seed)[None, None]
            )
            assert result.train_nll <= init_value[0, 0] + 1e-12

    def test_zero_nudge_data_yields_small_delta(self):
        # finals sampled from the model's own unnudged probabilities: the
        # fitter must not hallucinate an assistance effect
        from nudgelab import SurrogateAI, ai_recommend

        posterior = make_posterior(variance=0.15, size=200)
        ai = SurrogateAI(WeightVector([-0.8, -1.0, 0.9], bias=0.45), top_k=2)
        tasks = uniform_tasks(1500, N, seed=77)
        rng = np.random.default_rng(123)
        probs = unassisted(posterior, tasks)
        recs, confs = ai_recommend(ai, tasks)
        rows = []
        for i, (task, p, rec, conf) in enumerate(zip(tasks, probs, recs, confs)):
            rows.append(dict(
                subject_id="s", treatment=Treatment.IMMEDIATE, trial_index=i,
                features=task, final_decision=int(rng.random() < p),
                ai_recommendation=rec, ai_confidence=conf,
            ))
        trials = trials_of(rows)
        result = fit_nudge(trials, posterior, Treatment.IMMEDIATE,
                           FitConfig(seed=2, iterations=600, restarts=2))
        assert result.params[Branch.DIRECT].norm <= 0.2

    def test_recovers_positive_trust_sign_and_norm(self):
        true = NudgeParams.for_immediate(
            SignedSharedSignVector(1.5, np.array([0.5, 0.5, 0.5])))
        posterior = make_posterior(variance=0.15)
        trials = make_trials(Treatment.IMMEDIATE, true, n_trials=30,
                             temperature=0.5)
        result = fit_nudge(trials, posterior, Treatment.IMMEDIATE,
                           FitConfig(seed=2, iterations=800, l2_penalty=0.05))
        fitted = result.params[Branch.DIRECT]
        assert fitted.sign == 1
        true_norm = true[Branch.DIRECT].norm
        assert abs(fitted.norm - true_norm) <= 0.5 * true_norm

    def test_extreme_attention_recovered(self):
        true = NudgeParams.for_explanation(1.0)
        posterior = make_posterior(variance=0.15)
        trials = make_trials(Treatment.EXPLANATION, true, n_trials=30,
                             temperature=0.5)
        result = fit_nudge(trials, posterior, Treatment.EXPLANATION,
                           FitConfig(seed=2, iterations=800))
        assert result.params[Branch.EXP] >= 0.9

    def test_treatment_mismatch_rejected(self):
        posterior = make_posterior()
        trials = make_trials(Treatment.IMMEDIATE,
                             PARAMS_BY_TREATMENT[Treatment.IMMEDIATE])
        with pytest.raises(UsageError):
            fit_nudge(trials, posterior, Treatment.DELAYED)


class TestDeterministicAblation:
    def test_collapsed_ensemble_matches_point_model(self):
        # a posterior built by hand whose single member *is* the point
        # model, and the point model's collapsed posterior: both must
        # produce the same likelihood surface, hence the same fit
        point = WeightVector([1.0, -0.8, 0.6], bias=-0.3)
        singleton = singleton_posterior([1.0, -0.8, 0.6], bias=-0.3)
        trials = make_trials(Treatment.DELAYED,
                             PARAMS_BY_TREATMENT[Treatment.DELAYED])
        config = FitConfig(iterations=200, restarts=2, seed=9)
        via_posterior = fit_nudge(trials, singleton, Treatment.DELAYED, config)
        via_point = fit_nudge(trials, PopulationPosterior.point(point),
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
            fit_nudge(trials, PopulationPosterior.point(point), Treatment.DELAYED,
                      config)


class TestBatchConsistency:
    # the fit's stacked probabilities and the batched scoring path share one
    # kernel; both must agree with the old per-record predictors
    @pytest.mark.parametrize("treatment", list(PARAMS_BY_TREATMENT))
    def test_objective_probabilities_match_predictors(self, treatment):
        posterior = make_posterior()
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment])
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        rng = np.random.default_rng(43)
        theta = rng.normal(0.0, 1.0, objective.n_params)
        params = objective.params_from_theta(theta)
        batch = objective.probabilities(theta[None, None])[0]
        oracle = [per_record.decision_probability(trials, row, posterior, params)
                  for row in range(len(trials))]
        assert batch == pytest.approx(oracle, abs=1e-12)
        assert np.array_equal(
            np.clip(batch, 1e-6, 1 - 1e-6),
            decision_probability([trials], posterior, [params]))
        # three subjects of unequal trial counts, each at its own theta: the
        # fit and scoring read every trial's shift vector at one block index
        trial_sets = [make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                                  seed=s, n_trials=n)
                      for s, n in ((3, 9), (5, 14), (8, 6))]
        stacked = NudgeObjective(trial_sets, posterior.ensemble, treatment)
        thetas = rng.normal(0.0, 1.0, (len(trial_sets), stacked.n_params))
        assert np.array_equal(
            stacked.probabilities(thetas[None])[0],
            decision_probability(trial_sets, posterior,
                                 [stacked.params_from_theta(t) for t in thetas], 0.0))

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
        posterior = make_posterior(seed=seed, size=members)
        trials = make_trials(treatment, PARAMS_BY_TREATMENT[treatment],
                             seed=seed)
        objective = NudgeObjective([trials], posterior.ensemble, treatment)
        theta = scale * np.random.default_rng(seed).normal(
            0.0, 1.0, (3, 1, objective.n_params))
        for row, probs in zip(theta, objective.probabilities(theta)):
            params = objective.params_from_theta(row[0])
            oracle = [per_record.decision_probability(trials, row, posterior, params)
                      for row in range(len(trials))]
            assert probs == pytest.approx(oracle, abs=1e-12)
            assert np.array_equal(
                probs, decision_probability([trials], posterior, [params], 0.0))
