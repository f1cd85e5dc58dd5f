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
import math
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
    cognitive_style_tables,
    effect_summary,
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
    open_input,
    open_output,
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
from .records import Treatment, Trials, export_csv, group_by_subject, ingest
from .simulate import (
    default_population_moments,
    default_surrogate_ai,
    generate_behavior,
    make_synthetic_subjects,
    uniform_tasks,
)

__all__ = ["RunConfig", "run_pipeline", "main", "load_posterior"]

COMMANDS = ("simulate", "fit-population", "fit-nudge", "evaluate",
            "learning-curve", "analyze")

_ASSISTED = tuple(t for t, branches in TREATMENT_BRANCHES.items() if branches)

# Numeric settings that may be zero; every other one must be positive.
_MAY_BE_ZERO = ("seed", "nudge_l2_penalty", "sim_noise_temperature")

# The settings that shape the population posterior beside its seed and
# ensemble size, which posterior.json holds as ``seed`` and ``ensemble_size``.
# posterior.json records them and a command that reads it compares only
# these three: one posterior serves every command of a run, whatever its
# --treatment or --deterministic-ablation.
_POSTERIOR_SETTINGS = ("prior_variance", "population_iterations",
                       "population_train_samples")


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
    # population posterior fit
    population_iterations: int = 50
    population_train_samples: int = 64
    # per-subject nudge fit
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
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _has_type(value, _HINTS[field.name]):
                raise ConfigurationError(
                    f"{field.name} must be {field.type}, got {value!r}")
            if isinstance(value, list):
                object.__setattr__(self, field.name, tuple(value))
            if _HINTS[field.name] is float:  # 1 and 1.0 fingerprint alike
                object.__setattr__(self, field.name, float(value))
            if _HINTS[field.name] in (int, float) and (
                    value < 0 or value == 0 and field.name not in _MAY_BE_ZERO):
                raise ConfigurationError(
                    f"{field.name} must not be {'negative' if value < 0 else 'zero'}")
        if self.sim_trials_per_subject > self.sim_task_pool_size:
            raise ConfigurationError(
                "sim_trials_per_subject must not exceed sim_task_pool_size")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigurationError("train_fraction must lie in (0, 1)")
        if self.posthoc_permutations < 100:
            raise ConfigurationError("posthoc_permutations must be at least 100")
        for name in ("run_seeds", "train_sizes", "sim_treatments"):
            values = getattr(self, name)
            # a repeated seed or treatment would count one split or one
            # treatment's subjects twice
            if not values or len(set(values)) < len(values):
                raise ConfigurationError(
                    f"{name} must be a nonempty list of distinct values")
        if min(self.train_sizes) < 1:
            raise ConfigurationError("train_sizes must be positive")
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

    def posterior_settings(self) -> dict:
        """The values of ``_POSTERIOR_SETTINGS``, by name."""
        return {name: getattr(self, name) for name in _POSTERIOR_SETTINGS}

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
            iterations=self.nudge_iterations,
            seed=self.seed,
            restarts=self.nudge_restarts,
            l2_penalty=self.nudge_l2_penalty,
        )

    def split_plan(self) -> SplitPlan:
        return SplitPlan(train_fraction=self.train_fraction,
                         run_seeds=self.run_seeds)


# RunConfig's field annotations, resolved once
_HINTS = typing.get_type_hints(RunConfig)


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """RunConfig from an optional JSON file plus CLI overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise DataValidationError(f"config file not found: {path}")
        with open_input(path, "config file") as handle:
            try:
                values = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"config file is not valid JSON: {exc}")
        if not isinstance(values, dict):
            raise DataValidationError(f"config file {path} must hold a JSON "
                                      f"object, not {json.dumps(values)[:40]}")
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
    with open_output(path, newline="") as handle:
        handle.write(f"# config_fingerprint={fingerprint}\n")
        for comment in comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def save_posterior(posterior: PopulationPosterior, path, fingerprint: str,
                   settings: dict):
    """Write the posterior's moments, with the fingerprint of the config
    and the posterior settings (``RunConfig.posterior_settings``) that
    fitted it."""
    payload = {
        "config_fingerprint": fingerprint,
        "population_settings": settings,
        "n_features": posterior.n_features,
        "mean": [float(v) for v in posterior.mean],
        "variance": [float(v) for v in posterior.variance],
        "ensemble_size": posterior.ensemble_size,
        "seed": posterior.seed,
    }
    with open_output(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_posterior(path) -> PopulationPosterior:
    """Rebuild a stored posterior; the ensemble is redrawn from its seed."""
    return PopulationPosterior.from_moments(*_posterior_moments(Path(path))[:4])


def _posterior_moments(path: Path):
    """A stored posterior's checked (mean, variance, ensemble_size, seed),
    and its ``population_settings`` as stored (None when absent)."""
    if not path.exists():
        raise DataValidationError(
            f"population posterior missing: {path} (run fit-population first)"
        )
    try:
        with open_input(path, "population posterior") as handle:
            payload = json.load(handle)
        mean = np.asarray(payload["mean"], dtype=float)
        variance = np.asarray(payload["variance"], dtype=float)
        size, seed, n_features = (payload["ensemble_size"], payload["seed"],
                                  payload["n_features"])
        for name, value in (("ensemble_size", size), ("seed", seed),
                            ("n_features", n_features)):
            if not _has_type(value, int):
                raise TypeError(f"{name} must be a JSON integer, got {value!r}")
        settings = payload.get("population_settings")
    except _MALFORMED as exc:
        raise _malformed("population posterior", path, exc) from exc
    if (mean.ndim != 1 or variance.shape != mean.shape
            or n_features != mean.size - 1 or size < 1 or seed < 0
            or not np.isfinite(mean).all()
            or not (np.isfinite(variance) & (variance > 0.0)).all()):
        raise DataValidationError(
            f"malformed population posterior {path}: mean and variance must be "
            f"lists of n_features + 1 finite values, every variance and "
            f"ensemble_size must be positive and seed must be nonnegative"
        )
    return mean, variance, size, seed, settings


# What parsing a hand-editable artifact raises on bad content: a missing key,
# a value of the wrong type, or text that is not a number or not valid JSON.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _malformed(what: str, path, exc: Exception) -> DataValidationError:
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return DataValidationError(f"malformed {what} {path}: {detail}")


def write_params_file(path, subject_id: str, treatment: Treatment,
                      result: NudgeFitResult, fingerprint: str):
    """Structured key/value dump of one subject's fitted parameters.

    ``theta`` is the fit's parameter vector: for a shift-vector fit its
    [scale, raw magnitudes] blocks (magnitudes = softplus(raw)) and the
    winning ``restart_index``; for an explanation fit the attention weight
    itself, with ``restart_index`` 0.  One section per parameter follows.
    """
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
    with open_output(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _read_effects(path) -> list[tuple]:
    """effects.csv's rows as (subject_id, Treatment, Branch, signed_magnitude,
    crt_score or None)."""
    path = Path(path)
    if not path.exists():
        raise DataValidationError(
            f"fitted effects missing: {path} (run fit-nudge first)")
    effects, seen = [], set()
    try:
        with open_input(path, "effects file", newline="") as handle:
            for row in csv.DictReader(line for line in handle
                                      if not line.startswith("#")):
                subject, treatment = row["subject_id"], Treatment(row["treatment"])
                branch = Branch(row["branch"])
                if branch not in TREATMENT_BRANCHES[treatment]:
                    raise ValueError(f"{branch.value} is not a branch of "
                                     f"{treatment.value}")
                magnitude = float(row["signed_magnitude"])
                if not math.isfinite(magnitude):
                    raise ValueError(f"signed_magnitude {magnitude} is not finite")
                crt = int(row["crt_score"]) if row["crt_score"] else None
                if (subject, branch) in seen:
                    raise ValueError(f"subject {subject} repeats {branch.value}")
                seen.add((subject, branch))
                effects.append((subject, treatment, branch, magnitude, crt))
    except (*_MALFORMED, csv.Error) as exc:
        raise _malformed("effects file", path, exc) from exc
    if not effects:
        raise DataValidationError(f"no fitted effects in {path}")
    return effects


# -- commands -----------------------------------------------------------------


def _require_data(config: RunConfig) -> Trials:
    if config.data_path is None:
        raise UsageError("this command requires --data")
    return ingest(config.data_path, skip_invalid=config.skip_invalid)


def _cmd_simulate(config: RunConfig) -> list[str]:
    n = config.n_features
    fingerprint = config.fingerprint()
    mean, variance = default_population_moments(n, config.sim_weight_variance)
    ai = default_surrogate_ai(n, config.sim_top_k)
    pool = uniform_tasks(config.sim_task_pool_size, n,
                         derive_seed(config.seed, "task-pool"))
    shape = (config.sim_subjects_per_treatment, len(config.sim_treatments),
             config.sim_trials_per_subject, n)
    try:
        # behavior.csv's features, before any subject is drawn; the pages
        # are never touched, so only a size past what the process may map
        # fails
        np.empty(shape)
    except (MemoryError, ValueError, OverflowError):
        raise ConfigurationError(
            "cannot allocate {} subjects x {} treatments x {} trials of {} features"
            .format(*shape)) from None

    tables = []
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
            tables.append(generate_behavior(
                subject, pool[picks], ai,
                seed=derive_seed(config.seed, subject.subject_id, "behavior"),
            ))
            for branch in TREATMENT_BRANCHES[treatment]:
                effect_rows.append((
                    subject.subject_id, treatment.value, branch.value,
                    effect_summary(subject.true_params, branch),
                ))

    out = Path(config.out_dir)
    export_csv(Trials.concat(tables), out / "behavior.csv", fingerprint=fingerprint)
    write_csv(out / "true_effects.csv",
              ["subject_id", "treatment", "branch", "true_signed_magnitude"],
              effect_rows, fingerprint)
    return [str(out / "behavior.csv"), str(out / "true_effects.csv")]


def _cmd_fit_population(config: RunConfig) -> list[str]:
    records = _require_data(config)
    independent = records.take(records.treatment == Treatment.INDEPENDENT)
    if not len(independent):
        raise UsageError("no independent-treatment records to fit the population on")
    posterior = fit_population(independent.features, independent.final_decision,
                               config.population_config())
    path = Path(config.out_dir) / "posterior.json"
    save_posterior(posterior, path, config.fingerprint(), config.posterior_settings())
    return [str(path)]


def _configured_posterior(config: RunConfig) -> PopulationPosterior:
    """The stored posterior; it must hold ``mc_ensemble_size`` members and
    have been fitted under the run's seed and posterior settings, which is
    checked before any member is drawn."""
    path = Path(config.out_dir) / "posterior.json"
    mean, variance, size, seed, settings = _posterior_moments(path)
    if size != config.mc_ensemble_size:
        raise DataValidationError(
            f"population posterior {path} holds {size} members, but "
            f"mc_ensemble_size is {config.mc_ensemble_size}")
    if seed != config.seed:
        raise DataValidationError(
            f"population posterior {path} was fitted with seed = {seed}, but "
            f"the config has seed = {config.seed}")
    if not isinstance(settings, dict):
        raise DataValidationError(
            f"malformed population posterior {path}: population_settings must "
            f"be a JSON object of the settings that fitted it")
    for name, value in config.posterior_settings().items():
        stored = settings.get(name)
        if not (_has_type(stored, _HINTS[name]) and stored == value):
            raise DataValidationError(
                f"population posterior {path} was fitted with {name} = "
                f"{json.dumps(stored)}, but the config has {name} = {json.dumps(value)}")
    return PopulationPosterior.from_moments(mean, variance, size, seed=seed)


def _collapsed(posterior: PopulationPosterior) -> PopulationPosterior:
    """The deterministic ablation's model: one member at the posterior mean."""
    return PopulationPosterior.point(
        WeightVector(weights=posterior.mean[:-1], bias=posterior.mean[-1]))


def _treatment_rows(records: Trials, treatment: Treatment) -> Trials:
    """The records of one treatment; there must be some."""
    subset = records.take(records.treatment == treatment)
    if not len(subset):
        raise UsageError(f"no records for treatment {treatment.value!r}")
    return subset


def _fit_treatments(config: RunConfig, records) -> list[Treatment]:
    if config.treatment is not None:
        return [Treatment(config.treatment)]
    present = set(records.treatment.tolist())
    return [t for t in _ASSISTED if t in present]


def _cmd_fit_nudge(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    posterior = _configured_posterior(config)
    records = _require_data(config)
    fingerprint = config.fingerprint()
    treatments = _fit_treatments(config, records)
    if config.deterministic_ablation and treatments != [Treatment.DELAYED]:
        raise ConfigurationError(
            "--deterministic-ablation requires --treatment delayed"
        )
    model = _collapsed(posterior) if config.deterministic_ablation else posterior

    effect_rows, comments = [], []
    written = []
    for treatment in treatments:
        groups = group_by_subject(_treatment_rows(records, treatment))
        results = fit_nudge_batch(
            groups.values(), model, treatment, config.nudge_config(),
            seeds=[derive_seed(config.seed, sid) for sid in groups],
        )
        for (sid, trials), result in zip(groups.items(), results):
            path = out / "nudge_params" / f"{sid}.txt"
            write_params_file(path, sid, treatment, result, fingerprint)
            written.append(str(path))
            crt = trials.optional("crt_score")[0]
            if result.abandoned_restarts:
                comments.append(
                    f"warning: subject {sid} ({treatment.value}): "
                    f"{result.abandoned_restarts} of {config.nudge_restarts} "
                    f"restarts abandoned at a non-finite objective value")
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
              effect_rows, fingerprint, comments)
    written.append(str(effects_path))
    return written


def _cmd_evaluate(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    posterior = _configured_posterior(config)
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
        subset = _treatment_rows(records, treatment)
        reports = [
            ("framework", evaluate_framework(subset, posterior, plan,
                                             config.nudge_config())),
            ("logistic_baseline", baseline_logistic(
                subset, treatment, plan, l2=config.baseline_l2)),
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
    posterior = _configured_posterior(config)
    records = _require_data(config)
    treatments = _fit_treatments(config, records)
    if not treatments:
        raise UsageError("no assisted-treatment records for a learning curve")
    rows, comments = [], [f"uninformative_nll={UNINFORMATIVE_NLL!r}"]
    for treatment in treatments:
        points, warnings = learning_curve(
            _treatment_rows(records, treatment), treatment, posterior,
            list(config.train_sizes), config.split_plan(), config.nudge_config(),
            baseline_l2=config.baseline_l2,
        )
        rows.extend((treatment.value, p.size, p.method, p.run_seed, p.nll, p.f1)
                    for p in points)
        comments.extend(f"warning: {treatment.value}: {w}" for w in warnings)
    path = out / "learning_curve.csv"
    write_csv(path, ["treatment", "size", "method", "run_seed", "nll", "f1"], rows,
              config.fingerprint(), comments=comments)
    return [str(path)]


def _cmd_analyze(config: RunConfig) -> list[str]:
    out = Path(config.out_dir)
    group_rows, anova_rows, pair_rows, warnings = cognitive_style_tables(
        _read_effects(out / "effects.csv"), config.posthoc_permutations,
        config.seed)
    fingerprint = config.fingerprint()
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
                  comments=[f"warning: {w}" for w in warnings]
                  if name == "analysis_groups.csv" else ())
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise a UsageError instead of
    printing usage text and exiting with status 2."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nudgelab",
        description="Model AI assistance as a nudge on human decision making.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--data", help="behavior CSV path")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--treatment", choices=[t.value for t in Treatment])
    parser.add_argument("--train-size", type=int, action="append",
                        help="learning-curve training size (repeatable)")
    parser.add_argument("--skip-invalid", action="store_true", default=None)
    parser.add_argument("--deterministic-ablation", action="store_true",
                        default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        _print_error(exc.category, str(exc))
        return 1
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
