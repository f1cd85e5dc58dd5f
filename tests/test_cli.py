"""Command-line pipeline: configs, artifacts, exit codes, determinism."""

import builtins
import csv
import dataclasses
import errno
import json
import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nudgelab
from nudgelab import NudgeParams, PopulationPosterior, SignedSharedSignVector, Treatment
from nudgelab.cli import (
    RunConfig,
    load_config,
    load_posterior,
    main,
    run_pipeline,
    write_csv,
    write_params_file,
)
from nudgelab.errors import ConfigurationError
from nudgelab.fitting import NudgeFitResult, NudgeObjective


# Config values that are malformed (wrong type, not finite, unknown name, a
# JSON boolean for a number, zero where a positive value is needed, an empty
# list) or inconsistent (more trials per subject than tasks in the pool).
BAD_CONFIG_VALUES = [
    {"nudge_iterations": "x"},
    {"prior_variance": "nan"},
    {"run_seeds": 5},
    {"train_sizes": "ab"},
    {"sim_scale_range": 3},
    {"n_features": 2.5},
    {"treatment": "bogus"},
    {"sim_treatments": ["independent", "bogus"]},
    {"sim_trials_per_subject": 600, "sim_task_pool_size": 500},
    {"nudge_l2_penalty": -0.5},
    {"seed": -1},
    {"sim_noise_temperature": 10**400},
    {"nudge_restarts": True},
    {"baseline_l2": 0},
    {"run_seeds": []},
    {"train_sizes": []},
]
# Config values that a later command refused, or miscounted, when the
# config let them through: a treatment simulated twice (fit-population
# refuses its repeated trial indices), a run seed listed twice (evaluate
# counts one split as two runs) and a training size below one.
LATE_CONFIG_VALUES = {
    "sim_treatments-repeated": {"sim_treatments": ["independent", "immediate",
                                                   "immediate"]},
    "run_seeds-repeated": {"run_seeds": [0, 0]},
    "train_sizes-zero": {"train_sizes": [0]},
    "train_sizes-negative": {"train_sizes": [-2]},
}


def tiny_config(out_dir, data_path=None, **kwargs):
    values = dict(
        n_features=4,
        seed=11,
        out_dir=str(out_dir),
        data_path=str(data_path) if data_path else None,
        mc_ensemble_size=150,
        population_iterations=200,
        population_train_samples=16,
        nudge_iterations=80,
        nudge_restarts=2,
        run_seeds=(0, 1),
        train_sizes=(3,),
        sim_subjects_per_treatment=3,
        sim_trials_per_subject=8,
        sim_task_pool_size=60,
        posthoc_permutations=200,
    )
    values.update(kwargs)
    return RunConfig(**values)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One simulate + fit-population run shared by the command tests."""
    out = tmp_path_factory.mktemp("pipe")
    config = tiny_config(out)
    assert run_pipeline("simulate", config) == 0
    data = out / "behavior.csv"
    config = tiny_config(out, data_path=data)
    assert run_pipeline("fit-population", config) == 0
    return out


class TestConfig:
    # neither fit has a learning rate, the population fit always fits an
    # intercept, and the probability clip is a constant
    @pytest.mark.parametrize("key", ["not_a_key", "population_learning_rate",
                                     "include_bias", "nudge_learning_rate",
                                     "clip_eps"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: 1}))
        with pytest.raises(ConfigurationError, match=key):
            load_config(path)

    def test_removed_key_is_one_json_line(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"population_learning_rate": 0.01}))
        assert main(["fit-population", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "population_learning_rate" in error["message"]

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "n_features": 5}))
        config = load_config(path, {"seed": 9, "out_dir": None})
        assert config.seed == 9
        assert config.n_features == 5

    def test_fingerprint_ignores_paths(self, tmp_path):
        a = tiny_config(tmp_path / "a")
        b = tiny_config(tmp_path / "b", data_path=tmp_path / "x.csv")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != tiny_config(tmp_path / "a", seed=99).fingerprint()

    def test_integer_float_setting_fingerprints_like_the_float(self, tmp_path):
        assert (tiny_config(tmp_path, prior_variance=1).fingerprint()
                == tiny_config(tmp_path, prior_variance=1.0).fingerprint())

    def test_invalid_values_rejected(self, tmp_path):
        for bad in [{"n_features": 0}, *BAD_CONFIG_VALUES]:
            with pytest.raises(ConfigurationError):
                tiny_config(tmp_path, **bad)

    @pytest.mark.parametrize("bad", BAD_CONFIG_VALUES, ids=lambda bad: "-".join(
        f"{key}-empty" if value == [] else key for key, value in bad.items()))
    def test_invalid_config_file_is_one_json_line(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert _single_json_error(capsys)["category"] == "configuration"

    @pytest.mark.parametrize("permutations", [1, 99])
    def test_too_few_permutations_name_the_setting(self, tmp_path, capsys,
                                                   permutations):
        # the post-hoc test needs 100 permutations; the config refuses fewer
        # before any command runs
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"posthoc_permutations": permutations}))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "posthoc_permutations" in error["message"]
        assert tiny_config(tmp_path, posthoc_permutations=100).posthoc_permutations == 100

    @pytest.mark.parametrize("bad", LATE_CONFIG_VALUES.values(),
                             ids=LATE_CONFIG_VALUES.keys())
    def test_value_a_later_command_refused_names_the_setting(self, tmp_path,
                                                             capsys, bad):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert next(iter(bad)) in error["message"]
        assert not (tmp_path / "out").exists()

    def test_train_size_flag_ends_like_the_setting(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train_sizes": [0]}))
        assert main(["learning-curve", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "train_sizes" in error["message"]
        assert main(["learning-curve", "--train-size", "0",
                     "--out", str(tmp_path)]) == 1
        assert _single_json_error(capsys) == error

    @pytest.mark.parametrize("argv, fragment", [
        ([], "required: command"),
        (["bogus"], "invalid choice: 'bogus'"),
        (["simulate", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
        (["evaluate", "--treatment", "nope"], "--treatment: invalid choice: 'nope'"),
        (["learning-curve", "--train-size", "x"],
         "--train-size: invalid int value: 'x'"),
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
    ])
    def test_bad_arguments_are_one_json_line(self, capsys, argv, fragment):
        # argparse's usage text and exit status 2 become the usage error line
        assert main(argv) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "usage"
        assert fragment in error["message"]

    def test_help_still_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert "learning-curve" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["run_seeds", "train_sizes"])
    def test_empty_list_names_the_setting(self, tmp_path, capsys, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: []}))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert key in error["message"]

    @pytest.mark.parametrize("text", ["5", "[]", '"x"', "null"])
    def test_config_that_is_not_an_object_is_one_json_line(self, tmp_path, capsys,
                                                           text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert "must hold a JSON object" in error["message"]
        assert str(path) in error["message"]


_AFFIRM = SignedSharedSignVector(1.25, np.array([0.5, 0.25, 0.125, 0.0625]))
_CONTRA = SignedSharedSignVector(-0.75, np.array([0.1, 0.2, 0.3, 0.4]))


class TestParamsFiles:
    @pytest.mark.parametrize("params", [
        pytest.param(NudgeParams.for_immediate(_CONTRA), id="immediate"),
        pytest.param(NudgeParams.for_delayed(_AFFIRM, _CONTRA), id="delayed"),
        pytest.param(NudgeParams.for_explanation(0.3125), id="explanation"),
    ])
    def test_round_trip(self, tmp_path, params):
        result = NudgeFitResult(params=params, train_nll=0.4321, converged=True,
                                restart_index=2, theta=np.array([1.0, -2.0]))
        path = tmp_path / "s1.txt"
        write_params_file(path, "s1", params.treatment, result, "feedface")
        lines = path.read_text().splitlines()
        assert lines[:7] == [
            "config_fingerprint: feedface", "subject_id: s1",
            f"treatment: {params.treatment.value}", "train_nll: 0.4321",
            "converged: true", "restart_index: 2", "theta: 1.0 -2.0"]
        # one section per parameter, in field order, each number written so
        # that it reads back as the same float
        sections = {}
        for line in lines[7:]:
            if line.startswith("["):
                section = sections[line[1:-1]] = {}
            else:
                key, _, value = line.partition(": ")
                section[key] = [float(v) for v in value.split()]
        fields = ("delta_direct", "delta_affirm", "delta_contra", "delta_exp")
        assert list(sections) == [f for f in fields if getattr(params, f) is not None]
        for field, section in sections.items():
            vector = getattr(params, field)
            if field == "delta_exp":
                assert section == {"value": [vector]}
                continue
            assert section == {"scale": [vector.scale],
                               "magnitudes": vector.magnitudes.tolist(),
                               "realized": vector.realized.tolist()}


def _number_text():
    return st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str),
                     st.sampled_from(["x", "", "1e400", "-1e400", "-0.0", "nan"]))


class TestParsedSharedSign:
    # the shared-sign invariant of a vector built from parsed numbers:
    # whatever scale and magnitudes the text holds, either a number does not
    # parse, or construction fails validation, or the realized components
    # have delta_i * delta_j >= 0
    @settings(max_examples=200, deadline=None)
    @given(scale=_number_text(), magnitudes=st.lists(_number_text(), max_size=4))
    # a realized component that overflows to -inf makes -inf * -0.0 = nan
    @example(scale="-1e308", magnitudes=["1e308", "0"])
    def test_parsed_vectors_share_one_sign(self, scale, magnitudes):
        try:
            vector = SignedSharedSignVector(
                float(scale), np.array([float(m) for m in magnitudes]))
        except (ValueError, ConfigurationError):
            return
        delta = vector.realized
        with np.errstate(over="ignore"):  # a product past 1e308 is +-inf
            assert np.all(np.outer(delta, delta) >= 0.0)


class TestCommands:
    def test_simulate_outputs(self, pipeline_dir):
        behavior = (pipeline_dir / "behavior.csv").read_text().splitlines()
        assert behavior[0].startswith("# config_fingerprint=")
        # 4 treatments x 3 subjects x 8 trials
        assert len(behavior) == 2 + 4 * 3 * 8
        assert (pipeline_dir / "true_effects.csv").exists()

    def test_missing_crt_score_is_blank_and_warned(self, pipeline_dir, tmp_path):
        # a subject without a CRT score: effects.csv leaves the score empty
        # and analyze warns that the subject has none
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        data = Path(config.data_path)
        lines = data.read_text().splitlines()
        subject = next(line.split(",")[0] for line in lines[2:]
                       if ",immediate," in line)
        lines = [line.rpartition(",")[0] + "," if line.startswith(subject + ",")
                 else line for line in lines]
        data.write_text("\n".join(lines) + "\n")
        assert run_pipeline("fit-nudge", config) == 0
        assert run_pipeline("analyze", config) == 0
        with open(tmp_path / "run" / "effects.csv", newline="") as handle:
            rows = list(csv.DictReader(line for line in handle
                                       if not line.startswith("#")))
        assert {row["crt_score"] for row in rows if row["subject_id"] == subject} == {""}
        assert all(row["crt_score"] != "" for row in rows
                   if row["subject_id"] != subject)
        groups = (tmp_path / "run" / "analysis_groups.csv").read_text()
        assert f"# warning: subject {subject} has no CRT score" in groups

    def test_abandoned_restart_is_warned(self, pipeline_dir, tmp_path):
        # a restart whose objective goes non-finite is dropped and named in
        # effects.csv's comments, which analyze skips; a clean fit writes
        # no such warning
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        config = dataclasses.replace(config, treatment="immediate")
        value_and_gradient = NudgeObjective.value_and_gradient

        def poisoned(self, theta):
            value, grad = value_and_gradient(self, theta)
            value = value.copy()
            value[1, 0] = np.nan
            return value, grad

        effects = tmp_path / "run" / "effects.csv"
        assert run_pipeline("fit-nudge", config) == 0
        assert "warning" not in effects.read_text()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(NudgeObjective, "value_and_gradient", poisoned)
            assert run_pipeline("fit-nudge", config) == 0
        lines = effects.read_text().splitlines()
        first = [line for line in lines if not line.startswith("#")][1].split(",")[0]
        assert [line for line in lines if "warning" in line] == [
            f"# warning: subject {first} (immediate): 1 of 2 restarts "
            f"abandoned at a non-finite objective value"]
        assert run_pipeline("analyze", config) == 0

    def test_posterior_artifact_loads(self, pipeline_dir):
        posterior = load_posterior(pipeline_dir / "posterior.json")
        assert posterior.n_features == 4
        assert posterior.ensemble_size == 150

    def test_fit_nudge_without_posterior_fails(self, tmp_path, capsys):
        config = tiny_config(tmp_path, data_path=tmp_path / "missing.csv")
        assert run_pipeline("fit-nudge", config) == 1
        err = capsys.readouterr().err
        assert "population posterior missing" in err

    def test_analyze_without_effects_fails(self, tmp_path, capsys):
        assert main(["analyze", "--out", str(tmp_path)]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert "run fit-nudge first" in error["message"]

    def test_analyze_needs_no_data(self, fitted_dir, tmp_path):
        # analyze reads only effects.csv; --data is accepted and ignored
        outputs = {}
        for name, extra in (("without", []),
                            ("with", ["--data", str(tmp_path / "missing.csv")])):
            run = tmp_path / name
            shutil.copytree(fitted_dir / "run", run)
            assert main(["analyze", "--out", str(run), *extra]) == 0
            outputs[name] = [(run / f).read_text() for f in (
                "analysis_groups.csv", "analysis_anova.csv",
                "analysis_pairwise.csv")]
        assert outputs["without"] == outputs["with"]

    def test_fit_nudge_and_analyze(self, pipeline_dir, capsys):
        config = tiny_config(pipeline_dir, data_path=pipeline_dir / "behavior.csv")
        assert run_pipeline("fit-nudge", config) == 0
        params_files = sorted((pipeline_dir / "nudge_params").glob("*.txt"))
        assert len(params_files) == 9  # 3 subjects x 3 assisted treatments
        treatment_line = params_files[0].read_text().splitlines()[2]
        assert treatment_line in {f"treatment: {t.value}" for t in Treatment}

        assert run_pipeline("analyze", config) == 0
        groups = (pipeline_dir / "analysis_groups.csv").read_text()
        assert groups.startswith("# config_fingerprint=")
        header = [l for l in groups.splitlines() if not l.startswith("#")][0]
        assert header == "treatment,branch,crt_group,n,mean,ci_low,ci_high"

    def test_evaluate_and_curve(self, pipeline_dir):
        config = tiny_config(pipeline_dir, data_path=pipeline_dir / "behavior.csv",
                             treatment="immediate")
        assert run_pipeline("evaluate", config) == 0
        report = (pipeline_dir / "evaluation_report.csv").read_text().splitlines()
        rows = [l for l in report if not l.startswith("#")]
        assert rows[0] == "treatment,method,nll,accuracy,f1,n_subjects,n_runs"
        methods = {r.split(",")[1] for r in rows[1:]}
        assert methods == {"framework", "logistic_baseline"}

        assert run_pipeline("learning-curve", config) == 0
        curve = (pipeline_dir / "learning_curve.csv").read_text().splitlines()
        rows = [l for l in curve if not l.startswith("#")]
        assert rows[0] == "treatment,size,method,run_seed,nll,f1"
        assert len(rows) == 1 + 2 * 2  # two methods x two run seeds, one size
        assert {r.split(",")[0] for r in rows[1:]} == {"immediate"}

    def test_curve_without_treatment_keeps_every_treatment(self, pipeline_dir,
                                                           tmp_path):
        # one file holds a curve per assisted treatment, each the rows that
        # a --treatment run writes; no subject has more than 8 trials, so
        # size 8 is skipped, and each warning names its treatment
        sizes = {"train_sizes": (3, 8)}
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "all"),
                                     **sizes)
        assert run_pipeline("learning-curve", config) == 0
        every = _csv_rows(tmp_path / "all" / "learning_curve.csv")
        assert [r["treatment"] for r in every] == (
            ["immediate"] * 4 + ["delayed"] * 4 + ["explanation"] * 4)
        text = (tmp_path / "all" / "learning_curve.csv").read_text()
        for treatment in ("immediate", "delayed", "explanation"):
            assert (f"# warning: {treatment}: train size 8: skipped entirely\n"
                    in text)
        config = _copy_inputs(pipeline_dir, tmp_path / "one")
        config = dataclasses.replace(config, treatment="delayed", **sizes)
        assert run_pipeline("learning-curve", config) == 0
        one = _csv_rows(tmp_path / "one" / "learning_curve.csv")
        assert one == [r for r in every if r["treatment"] == "delayed"]

    def test_evaluate_deterministic_ablation_adds_a_method(self, pipeline_dir,
                                                          tmp_path):
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "run"),
                                     treatment="delayed", deterministic_ablation=True)
        assert run_pipeline("evaluate", config) == 0
        report = (tmp_path / "run" / "evaluation_report.csv").read_text()
        rows = [l.split(",") for l in report.splitlines() if not l.startswith("#")]
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("delayed", "framework"), ("delayed", "logistic_baseline"),
            ("delayed", "deterministic_ablation")]

    def test_fit_nudge_ablation_needs_delayed_treatment(self, pipeline_dir,
                                                        tmp_path, capsys):
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "run"),
                                     treatment="immediate", deterministic_ablation=True)
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "--deterministic-ablation" in error["message"]

    def test_evaluate_ablation_needs_delayed_treatment(self, pipeline_dir,
                                                       tmp_path, capsys):
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "run"),
                                     treatment="immediate", deterministic_ablation=True)
        assert run_pipeline("evaluate", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "--deterministic-ablation" in error["message"]

    @pytest.mark.parametrize("command", ["fit-nudge", "evaluate", "learning-curve"])
    def test_absent_treatment_is_named(self, pipeline_dir, tmp_path, capsys,
                                       command):
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "run"),
                                     treatment="immediate")
        data = tmp_path / "run" / "behavior.csv"
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join(l for l in lines if ",immediate," not in l))
        assert run_pipeline(command, config) == 1
        assert _single_json_error(capsys) == {
            "category": "usage", "message": "no records for treatment 'immediate'"}

    @pytest.mark.parametrize("command", ["fit-nudge", "evaluate", "learning-curve"])
    def test_posterior_of_another_ensemble_size_is_refused(self, pipeline_dir,
                                                           tmp_path, capsys,
                                                           command):
        # the stored posterior holds tiny_config's 150 members, then more
        # than can be allocated; fit-nudge and evaluate also run the
        # one-member ablation, which must not hide the mismatch.  The sizes
        # are compared before any member is drawn.
        config = dataclasses.replace(_copy_inputs(pipeline_dir, tmp_path / "run"),
                                     treatment="delayed", mc_ensemble_size=50,
                                     deterministic_ablation=command != "learning-curve")
        path = tmp_path / "run" / "posterior.json"
        huge = dict(json.loads(path.read_text()), ensemble_size=10**12)
        for size, stored in ((150, path.read_bytes()),
                             (10**12, json.dumps(huge).encode())):
            path.write_bytes(stored)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(PopulationPosterior, "from_moments", None)
                assert run_pipeline(command, config) == 1
            error = _single_json_error(capsys)
            assert error["category"] == "validation"
            assert str(path) in error["message"]
            assert f"holds {size} members" in error["message"]
            assert "mc_ensemble_size is 50" in error["message"]
            assert path.read_bytes() == stored
            assert sorted(p.name for p in path.parent.iterdir()) == [
                "behavior.csv", "posterior.json"]

    @pytest.mark.parametrize("name, value", [
        ("seed", 12), ("prior_variance", 2.0), ("population_iterations", 199),
        ("population_train_samples", 17), ("mc_ensemble_size", 151)])
    def test_posterior_of_other_population_settings_is_refused(
            self, pipeline_dir, tmp_path, capsys, name, value):
        # the stored posterior was fitted under tiny_config's settings; one
        # that shapes the posterior differs, and the mismatch is named
        # before any member is drawn
        args = _config_args(pipeline_dir, tmp_path, **{name: value})
        path = tmp_path / "run" / "posterior.json"
        stored = path.read_bytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PopulationPosterior, "from_moments", None)
            assert main(["fit-nudge", *args, "--treatment", "immediate"]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert str(path) in error["message"]
        assert name in error["message"]
        assert path.read_bytes() == stored

    def test_posterior_with_an_edited_seed_is_refused(self, pipeline_dir, tmp_path,
                                                      capsys):
        # from_moments draws the ensemble from posterior.json's own seed, so
        # an edited seed there would draw another ensemble
        args = _config_args(pipeline_dir, tmp_path)
        path = tmp_path / "run" / "posterior.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), seed=12)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PopulationPosterior, "from_moments", None)
            assert main(["fit-nudge", *args, "--treatment", "immediate"]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert str(path) in error["message"]
        assert "seed = 12" in error["message"]

    def test_posterior_serves_every_treatment_and_the_ablation(self, pipeline_dir,
                                                                tmp_path):
        # only the posterior settings are compared: fits of other treatments,
        # the deterministic ablation and other nudge settings all read it
        args = _config_args(pipeline_dir, tmp_path)
        assert main(["fit-nudge", *args, "--treatment", "explanation"]) == 0
        assert main(["fit-nudge", *args, "--treatment", "delayed",
                     "--deterministic-ablation"]) == 0

    def test_csv_fields_are_quoted(self, tmp_path):
        path = tmp_path / "effects.csv"
        row = ('lab 3, cohort "A"', "immediate", 0.5)
        write_csv(path, ["subject_id", "treatment", "value"], [row], "feedface")
        lines = path.read_text().splitlines()
        assert lines[1] == "subject_id,treatment,value"
        assert list(csv.reader(lines[2:])) == [[row[0], "immediate", "0.5"]]

    def test_invalid_data_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,treatment\n")
        config = tiny_config(tmp_path, data_path=bad)
        assert run_pipeline("fit-population", config) == 1
        assert "validation" in capsys.readouterr().err

    def test_main_entry_point(self, tmp_path):
        out = tmp_path / "cli"
        code = main([
            "simulate", "--out", str(out), "--seed", "3",
            "--config", _config_file(tmp_path),
        ])
        assert code == 0
        assert (out / "behavior.csv").exists()


def _config_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "n_features": 3,
        "sim_subjects_per_treatment": 2,
        "sim_trials_per_subject": 5,
        "sim_task_pool_size": 30,
        "mc_ensemble_size": 80,
        "population_iterations": 100,
        "nudge_iterations": 50,
    }))
    return str(path)


def _csv_rows(path) -> list[dict]:
    """An artifact's rows by column name, its # comment lines skipped."""
    return list(csv.DictReader(line for line in path.read_text().splitlines()
                               if not line.startswith("#")))


def _single_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def _copy_inputs(pipeline_dir, out):
    out.mkdir()
    shutil.copy(pipeline_dir / "behavior.csv", out / "behavior.csv")
    shutil.copy(pipeline_dir / "posterior.json", out / "posterior.json")
    return tiny_config(out, data_path=out / "behavior.csv")


def _config_args(pipeline_dir, tmp_path, **changes):
    """``main`` arguments for a copy of the shared run, through a config
    file of tiny_config's settings with short nudge fits and ``changes``."""
    config = _copy_inputs(pipeline_dir, tmp_path / "run")
    values = dict(dataclasses.asdict(config), nudge_iterations=5, nudge_restarts=1)
    values.update(changes)
    del values["out_dir"], values["data_path"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return ["--config", str(path), "--out", config.out_dir, "--data", config.data_path]


def _make_unreadable(path, problem, monkeypatch):
    """Turn ``path`` into a directory, a file that open refuses, or a file
    holding a byte that is not UTF-8."""
    if path.exists():
        path.unlink()
    if problem == "directory":
        path.mkdir()
    elif problem == "non-utf8":
        path.write_bytes(b"\xff\n")
    else:
        path.write_text("{}\n")
        real_open = builtins.open

        def refusing(file, *args, **kwargs):
            if Path(file) == path:
                raise PermissionError(errno.EACCES, "Permission denied", str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", refusing)


class TestUnreadableInput:
    # each input a command opens may be a directory, a file that cannot be
    # opened or one that does not decode; each ends as one JSON line
    @pytest.mark.parametrize("problem", ["directory", "permission", "non-utf8"])
    @pytest.mark.parametrize("target", ["data", "config", "posterior", "effects"])
    def test_one_json_line_and_exit_one(self, pipeline_dir, tmp_path, capsys,
                                        monkeypatch, target, problem):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        run = tmp_path / "run"
        args = ["--out", str(run), "--data", config.data_path]
        if target == "data":
            command, path = "fit-population", run / "behavior.csv"
        elif target == "config":
            command, path = "fit-population", tmp_path / "config.json"
            args += ["--config", str(path)]
        elif target == "posterior":
            command, path = "fit-nudge", run / "posterior.json"
        else:
            command, path = "analyze", run / "effects.csv"
        _make_unreadable(path, problem, monkeypatch)
        assert main([command, *args]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert error["message"].startswith("cannot read ")
        assert str(path) in error["message"]

    @pytest.mark.parametrize("line", [1, 3])
    def test_field_over_the_csv_limit_names_its_line(self, pipeline_dir, tmp_path,
                                                     capsys, line):
        # a field longer than csv.field_size_limit(), in the header or in a row
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        path = Path(config.data_path)
        lines = [text for text in path.read_text().splitlines()
                 if not text.startswith("#")]
        lines[line - 1] = "s" * (csv.field_size_limit() + 10) + lines[line - 1]
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit-population", "--out", config.out_dir,
                     "--data", str(path)]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert error["message"].startswith(f"cannot read behavior file {path}: "
                                           f"line {line}: field larger than")


class TestUnwritableOutput:
    # each artifact writer ends a path it cannot write as one usage line
    # that names the path, not as a traceback
    @pytest.mark.parametrize("command, blocker, artifact", [
        ("simulate", "", "behavior.csv"),
        ("fit-population", "", "posterior.json"),
        ("fit-nudge", "nudge_params", "nudge_params/"),
        ("analyze", "analysis_groups.csv/x", "analysis_groups.csv"),
    ])
    def test_one_json_line_and_exit_one(self, pipeline_dir, tmp_path, capsys,
                                        command, blocker, artifact):
        args = _config_args(pipeline_dir, tmp_path)
        run = Path(args[args.index("--out") + 1])
        if command == "analyze":
            assert main(["fit-nudge", *args]) == 0
            capsys.readouterr()
        if blocker:  # a file where a directory must go, or the reverse
            (run / blocker).parent.mkdir(exist_ok=True)
            (run / blocker).write_text("")
        else:  # --out itself is an existing file
            args[args.index("--out") + 1] = str(run / "behavior.csv")
        assert main([command, *args]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "usage"
        assert error["message"].startswith("cannot write ")
        assert artifact in error["message"]


# What a fuzzed line of the behavior CSV becomes: a field too few or too
# many, a field that is not a valid number, a quoted field that spans two
# lines, a non-finite value, a field over the csv field-size limit, bytes
# that are not UTF-8, a copy of another line, or a changed CRT score.
MALFORMED = ("short", "long", "bad-number", "line-break", "non-finite",
             "over-limit", "non-utf8", "repeat", "crt-change")


def _malformed(lines, index, kind, data):
    # simulated ids hold no commas; bytes an earlier change made stay as they are
    fields = lines[index].decode(errors="surrogateescape").split(",")
    position = data.draw(st.integers(0, len(fields) - 1))
    if kind == "short":
        fields.pop(position)
    elif kind == "long":
        fields.append("0")
    elif kind == "bad-number":
        fields[position] = data.draw(st.sampled_from(
            ["x", "1e400", "-0.5", "2", " 1", "0x1", "99999999999999999999999"]))
    elif kind == "line-break":
        fields[position] = '"a\nb"'
    elif kind == "non-finite":
        fields[position] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif kind == "over-limit":
        fields[position] = "s" * (csv.field_size_limit() + 1)
    elif kind == "non-utf8":
        return lines[index] + b"\xff\xfe"
    elif kind == "repeat":
        return lines[data.draw(st.integers(2, len(lines) - 1))]
    else:
        fields[-1] = data.draw(st.sampled_from(["", "0", "1", "2", "3"]))
    return ",".join(fields).encode(errors="surrogateescape")


class TestBehaviorFuzz:
    # a valid behavior file with random lines made malformed: fit-population
    # exits 0 or 1, and on 1 writes one JSON line to stderr, never a traceback
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_zero_or_one_json_line(self, pipeline_dir, tmp_path, capsys, data):
        lines = (pipeline_dir / "behavior.csv").read_bytes().splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            index = data.draw(st.integers(2, len(lines) - 1))  # after the header
            lines[index] = _malformed(lines, index, data.draw(
                st.sampled_from(MALFORMED)), data)
        path = tmp_path / "fuzz.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        argv = ["fit-population", "--out", str(tmp_path / "out"), "--data", str(path)]
        if data.draw(st.booleans()):
            argv.append("--skip-invalid")
        capsys.readouterr()
        code = main(argv)
        assert code in (0, 1)
        if code == 1:
            _single_json_error(capsys)


_EFFECTS_HEADER = "subject_id,treatment,branch,signed_magnitude,crt_score"


class TestMalformedArtifacts:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda payload: json.dumps(
            {k: v for k, v in payload.items() if k != "seed"}), id="missing-seed"),
        pytest.param(lambda payload: json.dumps(
            {k: v for k, v in payload.items() if k != "population_settings"}),
            id="missing-population-settings"),
        pytest.param(lambda payload: json.dumps(
            dict(payload, population_settings=[])), id="population-settings-list"),
        pytest.param(lambda payload: json.dumps(payload)[:-5], id="truncated-json"),
        pytest.param(lambda payload: json.dumps(
            dict(payload, variance=payload["variance"][:-1])), id="short-variance"),
        pytest.param(lambda payload: json.dumps(
            dict(payload, mean="high")), id="non-numeric-mean"),
        *(pytest.param(lambda payload, key=key, value=value: json.dumps(
            dict(payload, **{key: value})), id=f"{key}-{value!r}")
          for key, value in [("ensemble_size", 1.5), ("ensemble_size", True),
                             ("ensemble_size", "7"), ("ensemble_size", 0),
                             ("seed", 1.5), ("seed", -0.5), ("seed", True),
                             ("n_features", 3), ("n_features", 5),
                             ("n_features", 4.0)]),
        # moments that the ensemble draw would refuse without naming the file
        *(pytest.param(lambda payload, key=key, value=value: json.dumps(
            dict(payload, **{key: [value] + payload[key][1:]})),
            id=f"{key}[0]-{value!r}")
          for key, value in [("variance", -1.0), ("variance", 0.0),
                             ("variance", 1e309), ("mean", float("nan"))]),
    ])
    def test_broken_posterior_exits_one(self, pipeline_dir, tmp_path, capsys,
                                        corrupt):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        path = tmp_path / "run" / "posterior.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert f"malformed population posterior {path}" in error["message"]

    @pytest.mark.parametrize("lines", [
        pytest.param([_EFFECTS_HEADER, "s1,immediate,exp,0.5,1"],
                     id="branch-not-the-treatments"),
        pytest.param([_EFFECTS_HEADER, "s1,independent,direct,0.5,1"],
                     id="unassisted-treatment"),
        pytest.param([_EFFECTS_HEADER, "s1,sideways,direct,0.5,1"],
                     id="unknown-treatment"),
        pytest.param([_EFFECTS_HEADER, "s1,immediate,direct,1e400,1"],
                     id="magnitude-1e400"),
        pytest.param([_EFFECTS_HEADER, "s1,immediate,direct,nan,1"], id="magnitude-nan"),
        pytest.param([_EFFECTS_HEADER, "s1,immediate,direct,low,1"], id="magnitude-low"),
        pytest.param([_EFFECTS_HEADER, "s1,immediate,direct,0.5,x"], id="crt-x"),
        pytest.param([_EFFECTS_HEADER, "s1,delayed,affirm,0.5,1",
                      "s2,delayed,affirm,0.5,1", "s1,delayed,affirm,0.7,1"],
                     id="repeated-row"),
        pytest.param([_EFFECTS_HEADER], id="header-only"),
        pytest.param(["subject_id,treatment,branch,crt_score",
                      "s1,immediate,direct,1"], id="missing-column"),
    ])
    def test_broken_effects_file_exits_one(self, tmp_path, capsys, lines):
        path = tmp_path / "effects.csv"
        path.write_text("\n".join(["# config_fingerprint=feedface", *lines]) + "\n")
        assert main(["analyze", "--out", str(tmp_path)]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert str(path) in error["message"]

    def test_effects_whose_statistics_overflow_exit_one(self, tmp_path, capsys):
        path = tmp_path / "effects.csv"
        path.write_text("\n".join([_EFFECTS_HEADER, "s1,immediate,direct,1e200,0",
                                   "s2,immediate,direct,-1e200,0"]) + "\n")
        assert main(["analyze", "--out", str(tmp_path)]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "input"
        assert "too large to analyze" in error["message"]

    def test_repeated_trial_exits_one(self, pipeline_dir, tmp_path, capsys):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        data = tmp_path / "run" / "behavior.csv"
        lines = data.read_text().splitlines(keepends=True)
        data.write_text("".join(lines + lines[-1:]))
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert any(f"repeats line {len(lines)}" in row
                   for row in error["row_errors"])

    def test_subject_id_that_is_not_a_file_name_exits_one(self, pipeline_dir,
                                                          tmp_path, capsys):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        data = tmp_path / "run" / "behavior.csv"
        lines = data.read_text().splitlines(keepends=True)
        last = lines[-1]
        data.write_text("".join(lines[:-1]) + "../escaped" + last[last.index(","):])
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert any(f"line {len(lines)}:" in row and "subject_id" in row
                   for row in error["row_errors"])
        assert not (tmp_path / "run" / "escaped.txt").exists()

    def test_posterior_dimension_mismatch_exits_one(self, pipeline_dir, tmp_path,
                                                    capsys):
        out = tmp_path / "wide"
        assert run_pipeline("simulate", tiny_config(out, n_features=6)) == 0
        shutil.copy(pipeline_dir / "posterior.json", out / "posterior.json")
        config = tiny_config(out, n_features=6, data_path=out / "behavior.csv")
        capsys.readouterr()
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "posterior has 4 features" in error["message"]
        assert "trials have 6" in error["message"]


class TestEnsembleTooLarge:
    # 10**13 members of 5 coordinates need 364 TiB, more than the address
    # space, so numpy refuses the draw without allocating anything; the
    # larger sizes overflow numpy's index range instead
    SIZES = (10**13, 2**60, 2**63, 10**30)

    def test_posterior_ensemble_size_exits_one(self, pipeline_dir, tmp_path, capsys):
        # the configured size matches the stored one, so the draw is reached
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        path = tmp_path / "run" / "posterior.json"
        config_path = tmp_path / "config.json"
        stored = json.loads(path.read_text())
        for size in self.SIZES:
            path.write_text(json.dumps(dict(stored, ensemble_size=size)))
            config_path.write_text(json.dumps({
                "n_features": 4, "mc_ensemble_size": size, "seed": stored["seed"],
                **stored["population_settings"]}))
            for command in ("fit-nudge", "evaluate"):
                assert main([command, "--config", str(config_path),
                             "--out", config.out_dir,
                             "--data", config.data_path]) == 1
                error = _single_json_error(capsys)
                assert error["category"] == "configuration"
                assert str(size) in error["message"]

    def test_configured_ensemble_size_exits_one(self, pipeline_dir, tmp_path, capsys):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        path = tmp_path / "config.json"
        for size in self.SIZES:
            path.write_text(json.dumps({"n_features": 4, "population_iterations": 200,
                                        "mc_ensemble_size": size}))
            assert main(["fit-population", "--config", str(path), "--out",
                         config.out_dir, "--data", config.data_path]) == 1
            error = _single_json_error(capsys)
            assert error["category"] == "configuration"
            assert str(size) in error["message"]


class TestSimulationConfigs:
    # an empty treatment list, and a task pool, a feature count or a
    # subject count whose arrays need more than the address space (437 TiB,
    # 7 PiB and 5 PiB), so numpy refuses them without allocating anything,
    # or whose sizes overflow numpy's index range; the subject counts are
    # refused before the first subject is drawn
    @pytest.mark.parametrize("values, fragment", [
        ({"sim_treatments": []}, "sim_treatments"),
        ({"sim_task_pool_size": 10**13}, str(10**13)),
        ({"n_features": 10**15}, str(10**15)),
        ({"sim_task_pool_size": 10**30}, str(10**30)),
        ({"sim_task_pool_size": 10**30, "sim_trials_per_subject": 10**30},
         str(10**30)),
        ({"n_features": 10**30}, str(10**30)),
        ({"sim_subjects_per_treatment": 10**12}, str(10**12)),
        ({"sim_subjects_per_treatment": 10**30}, str(10**30)),
    ])
    def test_exits_one(self, tmp_path, capsys, values, fragment):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(values))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert fragment in error["message"]


# JSON values of every kind; numbers at most 12, so that no size asks for
# real work, besides the literals NaN and Infinity and the extreme floats
_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=4),
        st.integers(-10**20, 12),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308,
                         -1e308, 1e-320, -1e-320, 0.0, -0.0, 0.5, -2.5]),
        st.floats(max_value=12.0),
    ),
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(st.text(max_size=3), values, max_size=2),
    max_leaves=4)
_SMALL_SIMULATION = {"n_features": 3, "sim_subjects_per_treatment": 2,
                     "sim_trials_per_subject": 4, "sim_task_pool_size": 10}


class TestConfigFuzz:
    # a small valid config with one or two known settings overwritten by
    # random JSON: simulate exits 0 or 1, and on 1 writes one JSON line to
    # stderr, never a traceback
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(changes=st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(RunConfig)]),
        _JSON_VALUES, min_size=1, max_size=2))
    @example(changes={"sim_noise_temperature": 1e-320})
    @example(changes={"sim_weight_variance": 1e308})
    @example(changes={"sim_scale_range": [1e308, 1e308],
                      "sim_magnitude_range": [0.0, 1e308]})
    def test_simulate_exits_zero_or_one_json_line(self, tmp_path, capsys, changes):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**_SMALL_SIMULATION, **changes}))
        capsys.readouterr()
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code in (0, 1)
        if code == 1:
            _single_json_error(capsys)


# Integers past numpy's index range: a size drawn from them is refused at
# once, without allocating anything
_HUGE_INTEGERS = st.sampled_from([2**60, 2**63, 2**64, 10**30, -(10**30)])
# a posterior's keys, and lists of numbers as long as its mean (4 features
# and the intercept), so that some overwritten posteriors still load
_POSTERIOR_KEYS = ["config_fingerprint", "n_features", "mean", "variance",
                   "ensemble_size", "seed", "population_settings", "unknown"]
_FIVE_NUMBERS = st.lists(st.one_of(st.floats(), st.integers(-10**20, 12),
                                   _HUGE_INTEGERS), min_size=5, max_size=5)
# an effects.csv field's or line's new text: any text, a number, a CRT
# score in or out of range, or a treatment or branch name
_FIELD_VALUES = st.one_of(
    st.text(max_size=8), _number_text(), _HUGE_INTEGERS.map(str),
    st.sampled_from(["1e999", str(10**400), "4", "-1", "true", "independent",
                     "immediate", "delayed", "explanation", "direct", "affirm",
                     "contra", "exp"]))


@pytest.fixture(scope="module")
def fitted_dir(pipeline_dir, tmp_path_factory):
    """A copy of the shared run with every assisted treatment's
    nudge_params, and a config of short fits for the fuzz tests."""
    out = tmp_path_factory.mktemp("fitted")
    config = _copy_inputs(pipeline_dir, out / "run")
    assert run_pipeline("fit-nudge", config) == 0
    (out / "config.json").write_text(json.dumps(
        {"n_features": 4, "nudge_iterations": 5, "nudge_restarts": 1,
         "run_seeds": [0], "posthoc_permutations": 100, "seed": config.seed,
         "mc_ensemble_size": config.mc_ensemble_size,
         **config.posterior_settings()}))
    return out


class TestArtifactFuzz:
    # a valid posterior.json with one or two keys overwritten by random
    # JSON, or a valid effects.csv with one field or line replaced by random
    # text, repeated or dropped: evaluate or analyze exits 0, or 1 with one
    # JSON line on stderr, never a traceback
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(changes=st.dictionaries(
        st.sampled_from(_POSTERIOR_KEYS),
        _JSON_VALUES | _HUGE_INTEGERS | _FIVE_NUMBERS, min_size=1, max_size=2),
        treatment=st.sampled_from(["immediate", "delayed", "explanation"]))
    # finite members whose logits overflow
    @example(changes={"mean": [1e308] * 5}, treatment="explanation")
    def test_evaluate_exits_zero_or_one_json_line(self, fitted_dir, tmp_path,
                                                  capsys, changes, treatment):
        run = tmp_path / "run"
        shutil.copytree(fitted_dir / "run", run, dirs_exist_ok=True)
        path = run / "posterior.json"
        path.write_text(json.dumps(dict(json.loads(path.read_text()), **changes)))
        capsys.readouterr()
        code = main(["evaluate", "--config", str(fitted_dir / "config.json"),
                     "--out", str(run), "--data", str(run / "behavior.csv"),
                     "--treatment", treatment])
        assert code in (0, 1)
        if code == 1:
            _single_json_error(capsys)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_analyze_exits_zero_or_one_json_line(self, fitted_dir, tmp_path,
                                                 capsys, data):
        run = tmp_path / "run"
        shutil.copytree(fitted_dir / "run", run, dirs_exist_ok=True)
        path = run / "effects.csv"
        lines = path.read_text().splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        edit = data.draw(st.sampled_from(["field", "line", "repeat", "drop"]))
        if edit == "field":
            fields = lines[index].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_FIELD_VALUES)
            lines[index] = ",".join(fields)
        elif edit == "line":
            lines[index] = data.draw(_FIELD_VALUES)
        elif edit == "repeat":
            lines.insert(index, lines[index])
        else:
            del lines[index]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["analyze", "--config", str(fitted_dir / "config.json"),
                     "--out", str(run)])
        assert code in (0, 1)
        if code == 1:
            _single_json_error(capsys)

    def test_vector_whose_norm_overflows_exits_one(self, tmp_path, capsys):
        # finite components whose squares overflow the norm's dot product,
        # drawn by simulate from the configured magnitude range
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**_SMALL_SIMULATION,
                                    "sim_treatments": ["immediate"],
                                    "sim_magnitude_range": [1e200, 1e200]}))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "configuration"
        assert "norm must be finite" in error["message"]


class TestDeterminism:
    def test_simulate_byte_identical_across_out_dirs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_pipeline("simulate", tiny_config(out_a)) == 0
        assert run_pipeline("simulate", tiny_config(out_b)) == 0
        assert filecmp.cmp(out_a / "behavior.csv", out_b / "behavior.csv",
                           shallow=False)
        assert filecmp.cmp(out_a / "true_effects.csv", out_b / "true_effects.csv",
                           shallow=False)


class TestZeroNudgeOracle:
    def test_end_to_end_group_means_near_zero(self, tmp_path):
        # zero-nudge population: fitted effects should not show group-level
        # structure (groups of >= 2 subjects; singleton "means" are one
        # noisy subject)
        import dataclasses

        out = tmp_path / "zero"
        config = RunConfig(
            n_features=4, seed=21, out_dir=str(out),
            mc_ensemble_size=300, population_iterations=300,
            population_train_samples=24,
            nudge_iterations=300, nudge_restarts=2, nudge_l2_penalty=0.3,
            sim_subjects_per_treatment=12, sim_trials_per_subject=30,
            sim_task_pool_size=100, sim_scale_range=(0.0, 0.0),
            sim_treatments=("independent", "immediate", "delayed"),
            posthoc_permutations=200,
        )
        assert run_pipeline("simulate", config) == 0
        config = dataclasses.replace(config,
                                     data_path=str(out / "behavior.csv"))
        for command in ("fit-population", "fit-nudge", "analyze"):
            assert run_pipeline(command, config) == 0
        rows = [line.split(",") for line
                in (out / "analysis_groups.csv").read_text().splitlines()
                if line and not line.startswith(("#", "treatment"))]
        checked = 0
        for row in rows:
            if row[4] and int(row[3]) >= 2:
                assert abs(float(row[4])) <= 0.2, row
                checked += 1
        assert checked >= 4


class TestImportFootprint:
    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only: importing the CLI with
        # scipy.special took 0.38 s and 55 MB of RSS, without it 0.12-0.22 s
        # and 33 MB (numpy 2.4, scipy 1.17), and scipy.optimize adds another
        # 21 MB; nothing in the package may pull in any part of scipy
        src = Path(nudgelab.__file__).parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import nudgelab.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m == 'scipy' or m.startswith('scipy.')))")
        loaded = subprocess.run([sys.executable, "-c", probe, str(src)],
                                capture_output=True, text=True, check=True).stdout
        assert loaded.strip() == "[]"

    def test_a_table_building_run_loads_no_numpy_ma_or_scipy(self, tmp_path):
        # np.unique without index outputs imports numpy.ma (11-18 ms a
        # process); a run that simulates, fits the population and builds a
        # nudge fit's response table (128 members or more) must load
        # neither it nor scipy
        src = Path(nudgelab.__file__).parents[1]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "n_features": 4, "mc_ensemble_size": 128, "population_iterations": 20,
            "nudge_iterations": 5, "nudge_restarts": 1,
            "sim_subjects_per_treatment": 2, "sim_trials_per_subject": 8,
            "sim_task_pool_size": 40}))
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from nudgelab.cli import main\n"
            "args = ['--config', sys.argv[2], '--out', sys.argv[3]]\n"
            "data = ['--data', sys.argv[3] + '/behavior.csv']\n"
            "assert main(['simulate', *args]) == 0\n"
            "assert main(['fit-population', *args, *data]) == 0\n"
            "assert main(['fit-nudge', *args, *data, '--treatment', 'delayed']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m == 'numpy.ma' or m.startswith('numpy.ma.')))")
        loaded = subprocess.run(
            [sys.executable, "-c", probe, str(src), str(config), str(tmp_path / "run")],
            capture_output=True, text=True, check=True).stdout
        assert loaded.splitlines()[-1] == "[]"
