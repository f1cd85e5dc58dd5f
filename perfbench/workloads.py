"""The benchmark's workloads and the closed-loop runner that drives them.

A workload is a sequence of nudgelab CLI commands, each started only after
the previous one has finished and been checked.  One run of the sequence
is a *pass*; every pass of a run gets the same inputs and writes into a
fresh directory.  Commands are called in-process through
``nudgelab.cli.main``, so the interpreter, numpy and scipy are imported
once per run and count as set-up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks

# The seed whose artifacts are stored in reference.json.
RECORDED_SEED = 0


@dataclasses.dataclass(frozen=True)
class Step:
    command: str
    args: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command,) + self.args)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: dict                  # RunConfig overrides; the rest are defaults
    steps: tuple[Step, ...]       # the timed closed loop
    setup_steps: tuple[Step, ...] = ()  # input generation, timed as set-up


_DATA = "--data"

WORKLOADS = {
    w.name: w for w in (
        # The six-command pipeline at default fit settings; its time goes to
        # the S x T expit in the nudge objective.  Five subjects per
        # treatment let analyze run its ANOVA and post-hoc on most seeds.
        Workload(
            name="paper-pipeline",
            config={"sim_subjects_per_treatment": 5, "run_seeds": [0],
                    "train_sizes": [5, 15]},
            steps=(
                Step("simulate"),
                Step("fit-population", (_DATA,)),
                Step("fit-nudge", (_DATA,)),
                Step("evaluate", (_DATA, "--treatment", "immediate")),
                Step("learning-curve", (_DATA, "--treatment", "delayed")),
                Step("analyze", (_DATA,)),
            ),
        ),
        # Many cheap fits (point-model ablation, explanation) whose cost is
        # interpreter overhead, not S x T compute: an S x T kernel change
        # should leave it unchanged, and per-fit set-up shows here.
        Workload(
            name="light-fits",
            config={"sim_subjects_per_treatment": 12,
                    "sim_treatments": ["independent", "delayed", "explanation"]},
            setup_steps=(Step("simulate"), Step("fit-population", (_DATA,))),
            steps=(
                Step("fit-nudge", (_DATA, "--treatment", "delayed",
                                   "--deterministic-ablation")),
                Step("fit-nudge", (_DATA, "--treatment", "explanation")),
            ),
        ),
    )
}


@dataclasses.dataclass
class Op:
    """One executed command: an operation of the benchmark."""

    label: str
    command: str
    seconds: float
    errors: list[str]
    snapshot: dict | None

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclasses.dataclass
class Pass:
    ops: list[Op]
    spans: list | None = None

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    def seconds(self, command: str) -> float:
        return sum(op.seconds for op in self.ops if op.command == command)


class Runner:
    """Runs set-up and passes of one workload at one seed in ``work_dir``."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 reference: dict | None, cli_main, settings: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cli_main = cli_main
        self.settings = settings
        self.config_path = work_dir / "config.json"
        self.input_dir: Path | None = None
        # Baseline snapshots per step label: the stored reference at the
        # recorded seed, otherwise the first snapshot this run takes.
        self.baseline: dict[str, dict] = dict(reference or {})
        self.has_reference = reference is not None

    def setup_once(self, index: int) -> tuple[float, list[Op]]:
        """Generate the inputs; returns (seconds, set-up operations).

        The seconds count writing the config and running the set-up
        commands, not checking their output.
        """
        start = time.perf_counter()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.workload.config))
        seconds = time.perf_counter() - start
        ops = []
        if self.workload.setup_steps:
            out = self.work_dir / f"setup-{index}"
            ops = [self._run(step, out, out / "behavior.csv")
                   for step in self.workload.setup_steps]
            self.input_dir = out
        return seconds + sum(op.seconds for op in ops), ops

    def fits_per_pass(self) -> int:
        """Nudge fits one pass makes, from the workload's settings."""
        s = self.settings
        per_treatment = s["sim_subjects_per_treatment"] * len(s["run_seeds"])
        fits = 0
        for step in self.workload.steps:
            treatments = checks.treatments_of(step.args, s)
            if step.command == "fit-nudge":
                fits += s["sim_subjects_per_treatment"] * len(treatments)
            elif step.command == "evaluate":
                fits += per_treatment * len(treatments)
            elif step.command == "learning-curve":
                fits += per_treatment * len(s["train_sizes"])
        return fits

    def run_pass(self, index: int, tracer=None) -> Pass:
        out = self.work_dir / f"pass-{index}"
        out.mkdir(parents=True)
        data = out / "behavior.csv"
        if self.input_dir is not None:
            data = self.input_dir / "behavior.csv"
            shutil.copy(self.input_dir / "posterior.json", out / "posterior.json")
        ops = []
        for step in self.workload.steps:
            op = self._run(step, out, data, tracer)
            ops.append(op)
            if not op.ok:
                break
        return Pass(ops, tracer.finished_spans() if tracer else None)

    def _run(self, step: Step, out: Path, data: Path, tracer=None) -> Op:
        argv = [step.command, "--config", str(self.config_path),
                "--out", str(out), "--seed", str(self.seed)]
        for arg in step.args:
            argv.extend([arg, str(data)] if arg == _DATA else [arg])
        errors: list[str] = []
        span = (tracer.span(f"cli.{step.command}") if tracer
                else contextlib.nullcontext())
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(captured):
                code = self.cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            errors.append("raised:\n" + traceback.format_exc())
        seconds = time.perf_counter() - start
        if code not in (0, None):
            errors.append(f"exit code {code}")
        snapshot = None
        if not errors:
            try:
                snapshot = checks.snapshot(step.command, step.args, out,
                                           self.settings)
            except (checks.CheckError, OSError, ValueError, KeyError) as exc:
                errors.append(f"check: {exc}")
        if snapshot is not None:
            baseline = self.baseline.setdefault(step.label, snapshot)
            errors.extend(checks.compare(snapshot, baseline)[0])
        for message in errors:
            print(f"perfbench: {self.workload.name} {step.label}: {message}",
                  file=sys.stderr)
        return Op(step.label, step.command, seconds, errors, snapshot)
