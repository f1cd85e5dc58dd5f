"""Command-line pipeline: configs, artifacts, exit codes, determinism."""

import csv
import dataclasses
import json
import filecmp
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nudgelab
from nudgelab import NudgeParams, SignedSharedSignVector, Treatment
from nudgelab.cli import (
    RunConfig,
    load_config,
    load_posterior,
    main,
    read_params_file,
    run_pipeline,
    write_csv,
    write_params_file,
)
from nudgelab.errors import ConfigurationError
from nudgelab.fitting import NudgeFitResult


# Config values that are malformed (wrong type, not finite, unknown name, a
# JSON boolean for a number, zero where a positive value is needed) or
# inconsistent (more trials per subject than tasks in the pool).
BAD_CONFIG_VALUES = [
    {"nudge_iterations": "x"},
    {"prior_variance": "nan"},
    {"nudge_learning_rate": float("nan")},
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
    {"clip_eps": True},
    {"baseline_l2": 0},
]


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
    # the population fit has no learning rate and always fits an intercept
    @pytest.mark.parametrize("key", ["not_a_key", "population_learning_rate",
                                     "include_bias"])
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

    @pytest.mark.parametrize("bad", BAD_CONFIG_VALUES, ids="-".join)
    def test_invalid_config_file_is_one_json_line(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert _single_json_error(capsys)["category"] == "configuration"


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
        loaded = read_params_file(path)
        assert loaded["subject_id"] == "s1"
        assert loaded["treatment"] == params.treatment
        assert loaded["train_nll"] == 0.4321
        assert loaded["converged"] is True
        back = loaded["params"]
        assert back.treatment == params.treatment
        assert back.delta_exp == params.delta_exp
        for field in ("delta_direct", "delta_affirm", "delta_contra"):
            vector, read = getattr(params, field), getattr(back, field)
            if vector is None:
                assert read is None
                continue
            assert read.scale == vector.scale
            assert np.array_equal(read.magnitudes, vector.magnitudes)
            assert np.array_equal(read.realized, vector.realized)


class TestCommands:
    def test_simulate_outputs(self, pipeline_dir):
        behavior = (pipeline_dir / "behavior.csv").read_text().splitlines()
        assert behavior[0].startswith("# config_fingerprint=")
        # 4 treatments x 3 subjects x 8 trials
        assert len(behavior) == 2 + 4 * 3 * 8
        assert (pipeline_dir / "true_effects.csv").exists()

    def test_posterior_artifact_loads(self, pipeline_dir):
        posterior = load_posterior(pipeline_dir / "posterior.json")
        assert posterior.n_features == 4
        assert posterior.ensemble_size == 150

    def test_fit_nudge_without_posterior_fails(self, tmp_path, capsys):
        config = tiny_config(tmp_path, data_path=tmp_path / "missing.csv")
        assert run_pipeline("fit-nudge", config) == 1
        err = capsys.readouterr().err
        assert "population posterior missing" in err

    def test_fit_nudge_and_analyze(self, pipeline_dir, capsys):
        config = tiny_config(pipeline_dir, data_path=pipeline_dir / "behavior.csv")
        assert run_pipeline("fit-nudge", config) == 0
        params_files = sorted((pipeline_dir / "nudge_params").glob("*.txt"))
        assert len(params_files) == 9  # 3 subjects x 3 assisted treatments
        entry = read_params_file(params_files[0])
        assert entry["treatment"] in set(Treatment)

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
        assert rows[0] == "size,method,run_seed,nll,f1"
        assert len(rows) == 1 + 2 * 2  # two methods x two run seeds, one size

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


def _single_json_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    return json.loads(lines[0])


def _copy_inputs(pipeline_dir, out):
    out.mkdir()
    shutil.copy(pipeline_dir / "behavior.csv", out / "behavior.csv")
    shutil.copy(pipeline_dir / "posterior.json", out / "posterior.json")
    return tiny_config(out, data_path=out / "behavior.csv")


class TestMalformedArtifacts:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda payload: json.dumps(
            {k: v for k, v in payload.items() if k != "seed"}), id="missing-seed"),
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
    ])
    def test_broken_posterior_exits_one(self, pipeline_dir, tmp_path, capsys,
                                        corrupt):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        path = tmp_path / "run" / "posterior.json"
        path.write_text(corrupt(json.loads(path.read_text())))
        assert run_pipeline("fit-nudge", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert "malformed population posterior" in error["message"]

    @pytest.mark.parametrize("text", [
        pytest.param("subject_id: s1\ntreatment: immediate\n", id="missing-keys"),
        pytest.param("subject_id: s1\ntreatment: immediate\ntrain_nll: low\n"
                     "converged: true\nrestart_index: 0\n[delta_direct]\n"
                     "scale: 1\nmagnitudes: 0.5\n", id="non-numeric-value"),
        pytest.param("subject_id: s1\ntreatment: delayed\ntrain_nll: 0.5\n"
                     "converged: true\nrestart_index: 0\n", id="missing-vectors"),
        pytest.param("subject_id: s1\ntreatment: sideways\ntrain_nll: 0.5\n"
                     "converged: true\nrestart_index: 0\n[delta_exp]\n"
                     "value: 0.5\n", id="unknown-treatment"),
        pytest.param("subject_id: s1\ntreatment: immediate\ntrain_nll: 0.5\n"
                     "converged: true\nrestart_index: 0\n[delta_exp]\n"
                     "value: 0.5\n", id="treatment-mismatch"),
    ])
    def test_broken_params_file_exits_one(self, pipeline_dir, tmp_path, capsys,
                                          text):
        config = _copy_inputs(pipeline_dir, tmp_path / "run")
        params_dir = tmp_path / "run" / "nudge_params"
        params_dir.mkdir()
        (params_dir / "s1.txt").write_text(text)
        assert run_pipeline("analyze", config) == 1
        error = _single_json_error(capsys)
        assert error["category"] == "validation"
        assert "malformed params file" in error["message"]

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
    def test_cli_import_loads_no_scipy_optimize(self):
        # importing scipy.optimize after nudgelab.cli raises the peak RSS
        # from about 55 to 77 MB (numpy 2.4, scipy 1.17), 21 MB that every
        # command would pay; nothing in the package may pull it in
        src = Path(nudgelab.__file__).parents[1]
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); import nudgelab.cli; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
        loaded = subprocess.run([sys.executable, "-c", probe, str(src)],
                                capture_output=True, text=True, check=True).stdout
        assert loaded.strip() == "[]"
