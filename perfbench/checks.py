"""Output checks for the benchmark's pipeline commands.

Each command's artifacts get two checks:

* a structural check that holds at every seed: files exist and parse,
  row counts match the workload's configuration, and every probability,
  NLL, accuracy, F1 and p-value lies in its valid range;
* a comparison with a baseline snapshot of the same command: the stored
  reference at the recorded seed, otherwise the run's own first pass.
  Artifacts are compared by sha256 and, where the bytes differ, by their
  key values within ``TOLERANCES``.  Objective values are compared, not
  fitted parameters: an argmin along a flat direction can move without
  changing the fit.

Only the standard library is used, so the checks share no code with the
program they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Largest per-trial NLL the program can report: probabilities are clipped
# to [clip_eps, 1 - clip_eps] and clip_eps is 1e-6 by default.
MAX_NLL = -math.log(1e-6) + 1e-9

# Absolute tolerance per (artifact, column) for values compared with a
# baseline.  ``final_ones_share`` is the share of final decisions equal to 1.
TOLERANCES = {
    "behavior.csv": {"rows": 0.0, "final_ones_share": 0.02},
    "posterior.json": {"mean": 1e-6, "variance": 1e-6},
    "effects.csv": {"train_nll": 1e-3},
    "evaluation_report.csv": {"nll": 0.02, "accuracy": 0.05, "f1": 0.05},
    "analysis_anova.csv": {"p_value": 0.05},
    "analysis_pairwise.csv": {"p_value": 0.05},
}

BRANCHES = {"independent": 0, "immediate": 1, "delayed": 2, "explanation": 1}

OUTPUTS = {
    "simulate": ("behavior.csv", "true_effects.csv"),
    "fit-population": ("posterior.json",),
    "fit-nudge": ("effects.csv",),
    "evaluate": ("evaluation_report.csv", "evaluation_per_subject.csv"),
    "learning-curve": ("learning_curve.csv",),
    "analyze": ("analysis_groups.csv", "analysis_anova.csv",
                "analysis_pairwise.csv"),
}


class CheckError(Exception):
    """An artifact is missing, malformed or out of range."""


def read_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a program CSV, skipping its ``#`` comment lines."""
    if not path.is_file():
        raise CheckError(f"missing artifact {path.name}")
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _number(row: dict, column: str, lo=-math.inf, hi=math.inf) -> float:
    try:
        value = float(row[column])
    except (KeyError, TypeError, ValueError):
        raise CheckError(f"column {column!r} missing or not a number: {row}")
    if not (math.isfinite(value) and lo <= value <= hi):
        raise CheckError(f"{column}={value} outside [{lo}, {hi}]")
    return value


def _expect(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def treatments_of(command_args, settings) -> list[str]:
    if "--treatment" in command_args:
        return [command_args[command_args.index("--treatment") + 1]]
    return [t for t in settings["sim_treatments"] if t != "independent"]


def structural_check(command: str, args, out_dir: Path, settings: dict) -> dict:
    """Validate one command's artifacts; returns the key values to compare,
    keyed ``"<artifact>:<row>|<column>"``.

    Raises CheckError on the first problem found.
    """
    n_subjects = settings["sim_subjects_per_treatment"]
    values: dict[str, float] = {}
    if command == "simulate":
        rows = read_rows(out_dir / "behavior.csv")
        expected = (n_subjects * len(settings["sim_treatments"])
                    * settings["sim_trials_per_subject"])
        _expect(len(rows) == expected,
                f"behavior.csv has {len(rows)} rows, expected {expected}")
        ones = 0
        for row in rows:
            ones += int(_number(row, "final_decision", 0, 1))
            for i in range(settings["n_features"]):
                _number(row, f"x_{i + 1}", 0.0, 1.0)
        values["behavior.csv:all|rows"] = float(len(rows))
        values["behavior.csv:all|final_ones_share"] = ones / len(rows)
        effects = read_rows(out_dir / "true_effects.csv")
        branches = sum(BRANCHES[t] for t in settings["sim_treatments"])
        _expect(len(effects) == n_subjects * branches,
                f"true_effects.csv has {len(effects)} rows")
        for row in effects:
            _number(row, "true_signed_magnitude")
    elif command == "fit-population":
        path = out_dir / "posterior.json"
        _expect(path.is_file(), "missing artifact posterior.json")
        payload = json.loads(path.read_text())
        dim = settings["n_features"] + 1
        for key in ("mean", "variance"):
            vector = payload.get(key)
            _expect(isinstance(vector, list) and len(vector) == dim,
                    f"posterior {key} must have {dim} entries")
            for i, v in enumerate(vector):
                _expect(isinstance(v, (int, float)) and math.isfinite(v),
                        f"posterior {key}[{i}] is not finite")
                _expect(key == "mean" or v > 0, f"posterior variance[{i}] <= 0")
                values[f"posterior.json:{i}|{key}"] = float(v)
        _expect(payload.get("ensemble_size") == settings["mc_ensemble_size"],
                "posterior ensemble_size does not match the config")
    elif command == "fit-nudge":
        rows = read_rows(out_dir / "effects.csv")
        treatments = treatments_of(args, settings)
        expected = n_subjects * sum(BRANCHES[t] for t in treatments)
        _expect(len(rows) == expected,
                f"effects.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            _expect(row["treatment"] in treatments,
                    f"unexpected treatment {row['treatment']!r}")
            _expect(row["converged"] in ("true", "false"), "bad converged flag")
            _number(row, "signed_magnitude")
            key = f"effects.csv:{row['subject_id']}/{row['branch']}"
            values[f"{key}|train_nll"] = _number(row, "train_nll", 0.0, MAX_NLL)
        params = sorted((out_dir / "nudge_params").glob("*.txt"))
        subjects = {row["subject_id"] for row in rows}
        _expect(subjects <= {p.stem for p in params},
                "a fitted subject has no params file")
    elif command == "evaluate":
        rows = read_rows(out_dir / "evaluation_report.csv")
        treatments = treatments_of(args, settings)
        _expect(len(rows) == 2 * len(treatments),
                f"evaluation_report.csv has {len(rows)} rows")
        for row in rows:
            _expect(_number(row, "n_subjects") == n_subjects, "wrong n_subjects")
            _expect(_number(row, "n_runs") == len(settings["run_seeds"]),
                    "wrong n_runs")
            key = f"evaluation_report.csv:{row['treatment']}/{row['method']}"
            values[f"{key}|nll"] = _number(row, "nll", 0.0, MAX_NLL)
            values[f"{key}|accuracy"] = _number(row, "accuracy", 0.0, 1.0)
            values[f"{key}|f1"] = _number(row, "f1", 0.0, 1.0)
        per_subject = read_rows(out_dir / "evaluation_per_subject.csv")
        _expect(len(per_subject) == len(rows) * n_subjects,
                f"evaluation_per_subject.csv has {len(per_subject)} rows")
    elif command == "learning-curve":
        rows = read_rows(out_dir / "learning_curve.csv")
        expected = 2 * len(settings["train_sizes"]) * len(settings["run_seeds"])
        _expect(len(rows) == expected,
                f"learning_curve.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            _number(row, "nll", 0.0, MAX_NLL)
            _number(row, "f1", 0.0, 1.0)
    elif command == "analyze":
        groups = read_rows(out_dir / "analysis_groups.csv")
        branches = sum(BRANCHES[t] for t in settings["sim_treatments"])
        _expect(len(groups) == 3 * branches,
                f"analysis_groups.csv has {len(groups)} rows")
        for row in read_rows(out_dir / "analysis_anova.csv"):
            key = f"analysis_anova.csv:{row['treatment']}/{row['branch']}"
            values[f"{key}|p_value"] = _number(row, "p_value", 0.0, 1.0)
        for row in read_rows(out_dir / "analysis_pairwise.csv"):
            key = (f"analysis_pairwise.csv:{row['treatment']}/{row['branch']}/"
                   f"{row['group_a']}-{row['group_b']}")
            values[f"{key}|p_value"] = _number(row, "p_value", 0.0, 1.0)
    else:
        raise CheckError(f"no check for command {command!r}")
    return values


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def snapshot(command: str, args, out_dir: Path, settings: dict) -> dict:
    """Structural check plus hashes and key values of a command's artifacts."""
    values = structural_check(command, args, out_dir, settings)
    artifacts = {name: sha256(out_dir / name) for name in OUTPUTS[command]}
    if command == "fit-nudge":
        for path in sorted((out_dir / "nudge_params").glob("*.txt")):
            artifacts[f"nudge_params/{path.name}"] = sha256(path)
    return {"artifacts": artifacts, "values": values}


def compare(current: dict, baseline: dict) -> tuple[list[str], int, float]:
    """Compare a snapshot with a baseline snapshot of the same command.

    Returns (errors, identical artifact count, max |delta train_nll|).
    Values of artifacts whose bytes match are equal by construction.
    """
    errors = []
    identical = sum(
        1 for name, digest in current["artifacts"].items()
        if baseline["artifacts"].get(name) == digest
    )
    if set(current["artifacts"]) != set(baseline["artifacts"]):
        errors.append("artifact set differs from the baseline")
    if set(current["values"]) != set(baseline["values"]):
        errors.append("key rows differ from the baseline")
    max_dtrain = 0.0
    for key, value in current["values"].items():
        if key not in baseline["values"]:
            continue
        artifact, _, rest = key.partition(":")
        column = rest.rpartition("|")[2]
        delta = abs(value - baseline["values"][key])
        if column == "train_nll":
            max_dtrain = max(max_dtrain, delta)
        tolerance = TOLERANCES.get(artifact, {}).get(column, 0.0)
        if delta > tolerance:
            errors.append(f"{key}: {value!r} differs from the baseline "
                          f"{baseline['values'][key]!r} by more than {tolerance}")
    return errors, identical, max_dtrain
