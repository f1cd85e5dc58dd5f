"""Command-line front end and pipeline orchestration.

Commands: ``simulate``, ``fit-population``, ``fit-nudge``, ``evaluate``,
``learning-curve``, ``analyze``.  Every command is a pure function of
(inputs, config): outputs land in the configured directory, each file
carries the fingerprint of the config that produced it, and repeated runs
are byte-identical.

Exit codes: 0 success, 1 validation/usage error.
Errors are printed to stderr as one JSON line with a machine-readable
category plus a human message.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import derive_seed
from .analyze import (
    BRANCH_FIELDS,
    TREATMENT_BRANCHES,
    Branch,
    CrtGroup,
    crt_group,
    effect_summary,
    one_way_anova,
    pairwise_posthoc,
)
from .core import (
    PopulationFitConfig,
    PopulationPosterior,
    WeightVector,
    fit_population,
)
from .errors import (
    ConfigurationError,
    DataValidationError,
    NudgelabError,
    UsageError,
)
from .evaluate import (
    UNINFORMATIVE_NLL,
    SplitPlan,
    baseline_logistic,
    evaluate_framework,
    learning_curve,
)
# fit_nudge stays importable here: perfbench/selftest.py looks it up in this module
from .fitting import FitConfig, NudgeFitResult, fit_nudge, fit_nudge_batch  # noqa: F401
from .nudge import NudgeParams, SignedSharedSignVector
from .records import BehaviorRecord, Treatment, export_csv, group_by_subject, ingest
from .simulate import (
    default_population_moments,
    default_surrogate_ai,
    generate_behavior,
    make_synthetic_subjects,
    uniform_tasks,
)

__all__ = ["RunConfig", "run_pipeline", "main", "load_posterior", "read_params_file"]

COMMANDS = ("simulate", "fit-population", "fit-nudge", "evaluate",
            "learning-curve", "analyze")

_ASSISTED = tuple(t for t, branches in TREATMENT_BRANCHES.items() if branches)

# Numeric settings that may be zero; every other one must be positive.
_MAY_BE_ZERO = ("seed", "nudge_l2_penalty", "sim_noise_temperature")


def _has_type(value, hint) -> bool:
    """Whether a config value (as JSON loads it) fits a field's annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_has_type(item, args[0]) for item in value))
    if args:  # an optional field, X | None
        return value is None or _has_type(value, args[0])
    if isinstance(value, bool):  # bool subclasses int, but true is not 1
        return hint is bool
    if hint is float:  # finite, and an int that converts to a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


@dataclass(frozen=True)
class RunConfig:
    """All pipeline settings; JSON-loadable, with CLI flag overrides."""

    n_features: int = 6
    seed: int = 0
    out_dir: str = "out"
    data_path: str | None = None
    treatment: str | None = None
    skip_invalid: bool = False
    prior_variance: float = 1.0
    mc_ensemble_size: int = 1000
    clip_eps: float = 1e-6
    # population posterior fit
    population_iterations: int = 50
    population_train_samples: int = 64
    # per-subject nudge fit
    nudge_learning_rate: float = 0.05
    nudge_iterations: int = 500
    nudge_restarts: int = 4
    nudge_l2_penalty: float = 0.0
    deterministic_ablation: bool = False
    # evaluation protocol
    train_fraction: float = 0.5
    run_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    train_sizes: tuple[int, ...] = (5, 10, 15, 20, 25)
    baseline_l2: float = 1.0
    # synthetic data generation
    sim_subjects_per_treatment: int = 20
    sim_trials_per_subject: int = 30
    sim_task_pool_size: int = 500
    sim_noise_temperature: float = 1.0
    sim_weight_variance: float = 0.1
    sim_top_k: int = 2
    sim_scale_range: tuple[float, float] = (0.5, 2.0)
    sim_magnitude_range: tuple[float, float] = (0.3, 1.0)
    sim_treatments: tuple[str, ...] = (
        "independent", "immediate", "delayed", "explanation"
    )
    # post-hoc test
    posthoc_permutations: int = 10000

    def __post_init__(self):
        hints = typing.get_type_hints(RunConfig)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _has_type(value, hints[field.name]):
                raise ConfigurationError(
                    f"{field.name} must be {field.type}, got {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, field.name, tuple(value))
            if hints[field.name] is float:  # 1 and 1.0 fingerprint alike
                object.__setattr__(self, field.name, float(value))
            if hints[field.name] in (int, float) and (
                    value < 0 or value == 0 and field.name not in _MAY_BE_ZERO):
                raise ConfigurationError(
                    f"{field.name} must not be {'negative' if value < 0 else 'zero'}")
        if self.sim_trials_per_subject > self.sim_task_pool_size:
            raise ConfigurationError(
                "sim_trials_per_subject must not exceed sim_task_pool_size")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must lie in (0, 1)")
        known = [t.value for t in Treatment]
        for name in (*self.sim_treatments, self.treatment):
            if name is not None and name not in known:
                raise ConfigurationError(f"unknown treatment {name!r}")
        for name in ("sim_scale_range", "sim_magnitude_range"):
            rng = getattr(self, name)
            if len(rng) != 2 or rng[0] > rng[1] or rng[0] < 0:
                raise ConfigurationError(f"{name} must be (lo, hi) with 0 <= lo <= hi")
            object.__setattr__(self, name, (float(rng[0]), float(rng[1])))

    def fingerprint(self) -> str:
        """Hash of every setting that shapes outputs (paths excluded, so the
        same logical run lands identical bytes anywhere)."""
        payload = dataclasses.asdict(self)
        payload.pop("out_dir")
        payload.pop("data_path")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def population_config(self) -> PopulationFitConfig:
        return PopulationFitConfig(
            iterations=self.population_iterations,
            seed=self.seed,
            train_samples=self.population_train_samples,
            ensemble_size=self.mc_ensemble_size,
            prior_variance=self.prior_variance,
        )

    def nudge_config(self) -> FitConfig:
        return FitConfig(
            learning_rate=self.nudge_learning_rate,
            iterations=self.nudge_iterations,
            seed=self.seed,
            restarts=self.nudge_restarts,
            clip_eps=self.clip_eps,
            l2_penalty=self.nudge_l2_penalty,
        )

    def split_plan(self) -> SplitPlan:
        return SplitPlan(train_fraction=self.train_fraction,
                         run_seeds=self.run_seeds)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """RunConfig from an optional JSON file plus CLI overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise DataValidationError(f"config file not found: {path}")
        with open(path) as handle:
            try:
                values = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"config file is not valid JSON: {exc}")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


# -- artifact I/O -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows, fingerprint, comments=()):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(f"# config_fingerprint={fingerprint}\n")
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def save_posterior(posterior: PopulationPosterior, path, fingerprint: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "config_fingerprint": fingerprint,
        "n_features": posterior.n_features,
        "mean": [float(v) for v in posterior.mean],
        "variance": [float(v) for v in posterior.variance],
        "ensemble_size": posterior.ensemble_size,
        "seed": posterior.seed,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_posterior(path) -> PopulationPosterior:
    """Rebuild a stored posterior; the ensemble is redrawn from its seed."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(
            f"population posterior missing: {path} (run fit-population first)"
        )
    try:
        with open(path) as handle:
            payload = json.load(handle)
        mean = np.asarray(payload["mean"], dtype=float)
        variance = np.asarray(payload["variance"], dtype=float)
        size, seed, n_features = (payload["ensemble_size"], payload["seed"],
                                  payload["n_features"])
        for name, value in (("ensemble_size", size), ("seed", seed),
                            ("n_features", n_features)):
            if not _has_type(value, int):
                raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    except _MALFORMED as exc:
        raise _malformed("population posterior", path, exc) from exc
    if (mean.ndim != 1 or variance.shape != mean.shape
            or n_features != mean.size - 1 or size < 1 or seed < 0):
        raise DataValidationError(
            f"malformed population posterior {path}: mean and variance must be "
            f"lists of n_features + 1 values, ensemble_size must be positive "
            f"and seed must be nonnegative"
        )
    return PopulationPosterior.from_moments(mean, variance, size, seed=seed)


# What parsing a hand-editable artifact raises on bad content: a missing key,
# a value of the wrong type, or text that is not a number or not valid JSON.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _malformed(what: str, path, exc: Exception) -> DataValidationError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DataValidationError(f"malformed {what} {path}: {detail}")


def write_params_file(path, subject_id: str, treatment: Treatment,
                      result: NudgeFitResult, fingerprint: str):
    """Structured key/value dump of one subject's fitted parameters."""
    lines = [
        f"config_fingerprint: {fingerprint}",
        f"subject_id: {subject_id}",
        f"treatment: {treatment.value}",
        f"train_nll: {_fmt(result.train_nll)}",
        f"converged: {_fmt(result.converged)}",
        f"restart_index: {result.restart_index}",
        "theta: " + " ".join(_fmt(v) for v in result.theta),
    ]
    for branch, field in BRANCH_FIELDS.items():
        value = getattr(result.params, field)
        if value is None:
            continue
        lines.append(f"[{field}]")
        if branch == Branch.EXP:
            lines.append(f"value: {_fmt(value)}")
        else:
            lines.extend([
                f"scale: {_fmt(value.scale)}",
                "magnitudes: " + " ".join(_fmt(v) for v in value.magnitudes),
                "realized: " + " ".join(_fmt(v) for v in value.realized),
            ])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def read_params_file(path) -> dict:
    """Parse a params file back into {subject_id, treatment, params, ...}."""
    try:
        return _parse_params(Path(path).read_text())
    except (*_MALFORMED, ConfigurationError) as exc:
        raise _malformed("params file", path, exc) from exc


def _parse_params(text: str) -> dict:
    sections: dict[str, dict[str, str]] = {"": {}}
    current = ""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = {}
            continue
        key, _, value = line.partition(":")
        sections[current][key.strip()] = value.strip()

    top = sections[""]
    fields = {}
    for branch, field in BRANCH_FIELDS.items():
        if field not in sections:
            continue
        section = sections[field]
        if branch == Branch.EXP:
            fields[field] = float(section["value"])
        else:
            fields[field] = SignedSharedSignVector(
                scale=float(section["scale"]),
                magnitudes=np.array([float(v) for v in section["magnitudes"].split()]),
            )
    params = NudgeParams(**fields)
    treatment = Treatment(top["treatment"])
    if params.treatment != treatment:
        raise ValueError(f"treatment {treatment.value} does not match its "
                         f"{params.treatment.value} parameters")
    return {
        "subject_id": top["subject_id"],
        "treatment": treatment,
        "train_nll": float(top["train_nll"]),
        "converged": top["converged"] == "true",
        "restart_index": int(top["restart_index"]),
        "params": params,
    }


# -- commands -----------------------------------------------------------------


def _require_data(config: RunConfig) -> list[BehaviorRecord]:
    if config.data_path is None:
        raise UsageError("this command requires --data")
    return ingest(config.data_path, skip_invalid=config.skip_invalid)


def _filter_treatment(records, treatment: Treatment):
    return [r for r in records if r.treatment == treatment]


def _cmd_simulate(config: RunConfig) -> list[str]:
    n = config.n_features
    fingerprint = config.fingerprint()
    mean, variance = default_population_moments(n, config.sim_weight_variance)
    ai = default_surrogate_ai(n, config.sim_top_k)
    pool = uniform_tasks(config.sim_task_pool_size, n,
                         derive_seed(config.seed, "task-pool"))

    all_records: list[BehaviorRecord] = []
    effect_rows = []
    for name in config.sim_treatments:
        treatment = Treatment(name)
        subjects = make_synthetic_subjects(
            treatment, config.sim_subjects_per_treatment, mean, variance,
            seed=config.seed, noise_temperature=config.sim_noise_temperature,
            scale_range=config.sim_scale_range,
            magnitude_range=config.sim_magnitude_range,
        )
        for subject in subjects:
            task_rng = np.random.default_rng(
                derive_seed(config.seed, subject.subject_id, "tasks")
            )
            picks = task_rng.choice(len(pool), size=config.sim_trials_per_subject,
                                    replace=False)
            tasks = [pool[i] for i in picks]
            all_records.extend(generate_behavior(
                subject, tasks, ai,
                seed=derive_seed(config.seed, subject.subject_id, "behavior"),
            ))
            for branch in TREATMENT_BRANCHES[treatment]:
                effect_rows.append((
                    subject.subject_id, treatment.value, branch.value,
                    effect_summary(subject.true_params, branch),
                ))

    out = Path(config.out_dir)
    export_csv(all_records, out / "behavior.csv", fingerprint=fingerprint)
    write_csv(out / "true_effects.csv",
              ["subject_id", "treatment", "branch", "true_signed_magnitude"],
              effect_rows, fingerprint)
    return [str(out / "behavior.csv"), str(out / "true_effects.csv")]


def _cmd_fit_population(config: RunConfig) -> list[str]:
    records = _require_data(config)
    independent = _filter_treatment(records, Treatment.INDEPENDENT)
    if not independent:
        raise UsageError("no independent-treatment records to fit the population on")
    data = [(r.task(), r.final_decision) for r in independent]
    posterior = fit_population(data, config.population_config())
    path = Path(config.out_dir) / "posterior.json"
    save_posterior(posterior, path, config.fingerprint())
    return [str(path)]


def _collapsed(posterior: PopulationPosterior) -> PopulationPosterior:
    """The deterministic ablation's model: one member at the posterior mean."""
    return PopulationPosterior.point(
        WeightVector(weights=posterior.mean[:-1], bias=posterior.mean[-1]))


def _fit_treatments(config: RunConfig, records) -> list[Treatment]:
    if config.treatment is not None:
        return [Treatment(config.treatment)]
    present = {r.treatment for r in records}
    return [t for t in _ASSISTED if t in present]


def _cmd_fit_nudge(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    posterior = load_posterior(out / "posterior.json")
    records = _require_data(config)
    fingerprint = config.fingerprint()
    treatments = _fit_treatments(config, records)
    if config.deterministic_ablation and treatments != [Treatment.DELAYED]:
        raise ConfigurationError(
            "--deterministic-ablation requires --treatment delayed"
        )
    model = _collapsed(posterior) if config.deterministic_ablation else posterior

    effect_rows = []
    written = []
    for treatment in treatments:
        groups = group_by_subject(_filter_treatment(records, treatment))
        if not groups:
            raise UsageError(f"no records for treatment {treatment.value!r}")
        results = fit_nudge_batch(
            groups.values(), model, treatment, config.nudge_config(),
            seeds=[derive_seed(config.seed, sid) for sid in groups],
        )
        for (sid, trials), result in zip(groups.items(), results):
            path = out / "nudge_params" / f"{sid}.txt"
            write_params_file(path, sid, treatment, result, fingerprint)
            written.append(str(path))
            crt = trials[0].crt_score
            for branch in TREATMENT_BRANCHES[treatment]:
                effect_rows.append((
                    sid, treatment.value, branch.value,
                    effect_summary(result.params, branch),
                    "" if crt is None else crt,
                    result.train_nll, result.converged, result.restart_index,
                ))
    effects_path = out / "effects.csv"
    write_csv(effects_path,
              ["subject_id", "treatment", "branch", "signed_magnitude",
               "crt_score", "train_nll", "converged", "restart_index"],
              effect_rows, fingerprint)
    written.append(str(effects_path))
    return written


def _cmd_evaluate(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    posterior = load_posterior(out / "posterior.json")
    records = _require_data(config)
    fingerprint = config.fingerprint()
    plan = config.split_plan()
    treatments = _fit_treatments(config, records)
    if not treatments:
        raise UsageError("no assisted-treatment records to evaluate")
    if config.deterministic_ablation and Treatment.DELAYED not in treatments:
        raise ConfigurationError(
            "--deterministic-ablation requires the delayed treatment"
        )

    rows, subject_rows, comments = [], [], []
    for treatment in treatments:
        subset = _filter_treatment(records, treatment)
        reports = [
            ("framework", evaluate_framework(subset, posterior, plan,
                                             config.nudge_config())),
            ("logistic_baseline", baseline_logistic(
                subset, treatment, plan, l2=config.baseline_l2,
                clip_eps=config.clip_eps)),
        ]
        if config.deterministic_ablation and treatment == Treatment.DELAYED:
            reports.append(("deterministic_ablation", evaluate_framework(
                subset, _collapsed(posterior), plan, config.nudge_config())))
        for method, report in reports:
            rows.append((treatment.value, method, report.nll, report.accuracy,
                         report.f1, report.n_subjects, report.n_runs))
            for sm in report.per_subject:
                subject_rows.append((treatment.value, method, sm.subject_id,
                                     sm.nll, sm.accuracy, sm.f1))
            comments.extend(f"warning: {w}" for w in report.warnings)

    report_path = out / "evaluation_report.csv"
    reference = [f"uninformative_nll={UNINFORMATIVE_NLL!r}"]
    write_csv(report_path,
              ["treatment", "method", "nll", "accuracy", "f1",
               "n_subjects", "n_runs"],
              rows, fingerprint, comments=reference + sorted(set(comments)))
    subject_path = out / "evaluation_per_subject.csv"
    write_csv(subject_path,
              ["treatment", "method", "subject_id", "nll", "accuracy", "f1"],
              subject_rows, fingerprint)
    return [str(report_path), str(subject_path)]


def _cmd_learning_curve(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    posterior = load_posterior(out / "posterior.json")
    records = _require_data(config)
    treatments = _fit_treatments(config, records)
    if len(treatments) != 1:
        raise UsageError("learning-curve requires --treatment "
                         "(or a single-treatment data file)")
    treatment = treatments[0]
    subset = _filter_treatment(records, treatment)
    rows, warnings = learning_curve(
        subset, treatment, posterior, list(config.train_sizes),
        config.split_plan(), config.nudge_config(),
        baseline_l2=config.baseline_l2,
    )
    path = out / "learning_curve.csv"
    write_csv(path, ["size", "method", "run_seed", "nll", "f1"],
              [(r.size, r.method, r.run_seed, r.nll, r.f1) for r in rows],
              config.fingerprint(),
              comments=[f"uninformative_nll={UNINFORMATIVE_NLL!r}"]
              + [f"warning: {w}" for w in warnings])
    return [str(path)]


def _cmd_analyze(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    params_dir = out / "nudge_params"
    if not params_dir.exists():
        raise DataValidationError(
            f"fitted nudge parameters missing: {params_dir} (run fit-nudge first)"
        )
    records = _require_data(config)
    fingerprint = config.fingerprint()
    crt_by_subject = {}
    for rec in records:
        crt_by_subject.setdefault(rec.subject_id, rec.crt_score)

    fitted = [read_params_file(p) for p in sorted(params_dir.glob("*.txt"))]
    if not fitted:
        raise DataValidationError(f"no parameter files under {params_dir}")

    group_rows, anova_rows, pair_rows, comments = [], [], [], []
    ordered_groups = [CrtGroup.INTUITIVE, CrtGroup.MODERATE, CrtGroup.REFLECTIVE]
    for treatment in _ASSISTED:
        entries = [f for f in fitted if f["treatment"] == treatment]
        if not entries:
            continue
        for branch in TREATMENT_BRANCHES[treatment]:
            buckets: dict[CrtGroup, list[float]] = {g: [] for g in ordered_groups}
            for entry in entries:
                crt = crt_by_subject.get(entry["subject_id"])
                if crt is None:
                    comments.append(
                        f"warning: subject {entry['subject_id']} has no CRT score"
                    )
                    continue
                buckets[crt_group(crt)].append(
                    effect_summary(entry["params"], branch)
                )
            for group in ordered_groups:
                values = np.asarray(buckets[group], dtype=float)
                if values.size == 0:
                    group_rows.append((treatment.value, branch.value,
                                       group.value, 0, "", "", ""))
                    continue
                mean = float(values.mean())
                if values.size >= 2:
                    half = 1.96 * float(values.std(ddof=1)) / np.sqrt(values.size)
                    ci_low, ci_high = mean - half, mean + half
                    group_rows.append((treatment.value, branch.value, group.value,
                                       values.size, mean, ci_low, ci_high))
                else:
                    group_rows.append((treatment.value, branch.value, group.value,
                                       values.size, mean, "", ""))
            testable = [buckets[g] for g in ordered_groups if len(buckets[g]) >= 2]
            names = [g for g in ordered_groups if len(buckets[g]) >= 2]
            if len(testable) < 2:
                comments.append(
                    f"warning: {treatment.value}/{branch.value}: fewer than two "
                    f"groups with >= 2 subjects; ANOVA skipped"
                )
                continue
            anova = one_way_anova(testable)
            anova_rows.append((treatment.value, branch.value, anova.f_statistic,
                               anova.df_between, anova.df_within, anova.p_value,
                               anova.degenerate))
            posthoc = pairwise_posthoc(
                testable, n_permutations=config.posthoc_permutations,
                seed=derive_seed(config.seed, treatment.value, branch.value,
                                 "posthoc"),
            )
            for comparison in posthoc:
                i, j = comparison.pair
                pair_rows.append((treatment.value, branch.value,
                                  names[i].value, names[j].value,
                                  comparison.mean_diff, comparison.p_value))

    paths = []
    for name, header, rows in (
        ("analysis_groups.csv",
         ["treatment", "branch", "crt_group", "n", "mean", "ci_low", "ci_high"],
         group_rows),
        ("analysis_anova.csv",
         ["treatment", "branch", "f_statistic", "df_between", "df_within",
          "p_value", "degenerate"],
         anova_rows),
        ("analysis_pairwise.csv",
         ["treatment", "branch", "group_a", "group_b", "mean_diff", "p_value"],
         pair_rows),
    ):
        path = out / name
        write_csv(path, header, rows, fingerprint,
                  comments=sorted(set(comments)) if name == "analysis_groups.csv"
                  else ())
        paths.append(str(path))
    return paths


_DISPATCH = {
    "simulate": _cmd_simulate,
    "fit-population": _cmd_fit_population,
    "fit-nudge": _cmd_fit_nudge,
    "evaluate": _cmd_evaluate,
    "learning-curve": _cmd_learning_curve,
    "analyze": _cmd_analyze,
}


def run_pipeline(command: str, config: RunConfig) -> int:
    """Execute one pipeline command; returns the process exit code."""
    if command not in _DISPATCH:
        _print_error("usage", f"unknown command {command!r}")
        return 1
    try:
        artifacts = _DISPATCH[command](config)
    except NudgelabError as exc:
        rows = exc.row_errors if isinstance(exc, DataValidationError) else []
        _print_error(exc.category, str(exc), rows)
        return 1
    for path in artifacts:
        print(path)
    return 0


def _print_error(category: str, message: str, row_errors=()):
    """One JSON line on stderr; per-row problems ride in ``row_errors``."""
    error = {"category": category, "message": message}
    if row_errors:
        error["row_errors"] = list(row_errors)
    print(json.dumps(error), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nudgelab",
        description="Model AI assistance as a nudge on human decision making.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--data", help="behavior CSV path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--treatment",
                       choices=[t.value for t in Treatment])
        p.add_argument("--train-size", type=int, action="append",
                       help="learning-curve training size (repeatable)")
        p.add_argument("--skip-invalid", action="store_true", default=None)
        p.add_argument("--deterministic-ablation", action="store_true",
                       default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {
        "data_path": args.data,
        "out_dir": args.out,
        "seed": args.seed,
        "treatment": args.treatment,
        "skip_invalid": args.skip_invalid,
        "deterministic_ablation": args.deterministic_ablation,
        "train_sizes": tuple(args.train_size) if args.train_size else None,
    }
    try:
        config = load_config(args.config, overrides)
    except NudgelabError as exc:
        _print_error(exc.category, str(exc))
        return 1
    return run_pipeline(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
