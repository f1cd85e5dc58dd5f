"""nudgelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper-pipeline --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  Every line before the last is for people: the machine stamp and
a table of every timing the run took.  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

LOADAVG_AT_START = os.getloadavg()
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in PINNED_THREADS:
    os.environ[_name] = "1"

import argparse  # noqa: E402  (thread variables must be set before numpy loads)
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import RECORDED_SEED, WORKLOADS, Runner  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
ROTATE_SECONDS = 0.25


def import_program():
    """Import nudgelab.cli from the checkout; returns (module, seconds)."""
    if not (SRC / "nudgelab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no nudgelab sources under {SRC}")
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nudgelab.cli
    return nudgelab.cli, time.perf_counter() - start


_IMPORT_PROBE = ("import sys, time; start = time.perf_counter(); "
                 "sys.path.insert(0, sys.argv[1]); import nudgelab.cli; "
                 "print(time.perf_counter() - start)")


def fresh_import_seconds() -> float:
    """Import time of nudgelab.cli in a fresh interpreter, so that set-up,
    imports included, can be repeated within one run."""
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=120, check=True)
    return float(probe.stdout.strip())


@contextlib.contextmanager
def rotating_cpus(period: float = ROTATE_SECONDS):
    """Move the calling thread to the next CPU it may use every ``period`` s.

    On a shared host each CPU's speed drifts on its own over tens of
    seconds, as neighbours come and go on its sibling hardware thread.
    Spreading the run evenly over every allowed CPU averages those drifts
    instead of following whichever CPU the scheduler happened to pick.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        for step in itertools.count(1):
            if stop.wait(period):
                return
            os.sched_setaffinity(tid, {cpus[step % len(cpus)]})

    mover = threading.Thread(target=rotate, name="cpu-rotation", daemon=True)
    if len(cpus) > 1:
        mover.start()
    try:
        yield cpus
    finally:
        stop.set()
        if mover.is_alive():
            mover.join()
        os.sched_setaffinity(tid, cpus)


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(cpus) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": {name: os.environ[name] for name in PINNED_THREADS},
        "cpu_rotation": {"cpus": cpus, "period_s": ROTATE_SECONDS},
        "git_sha": git_sha(ROOT),
        "loadavg_at_start": list(LOADAVG_AT_START),
    }


def load_reference(workload) -> dict:
    stored = json.loads(REFERENCE.read_text())
    entry = stored["workloads"].get(workload.name)
    if stored["seed"] != RECORDED_SEED or entry is None \
            or entry["config"] != workload.config:
        raise SystemExit(f"perfbench: {REFERENCE.name} does not match workload "
                         f"{workload.name}; run perfbench/record_reference.py")
    return entry["steps"]


def measure(runner: Runner, seconds: float, trace: bool):
    """Run passes until ``seconds`` have gone by, at least one.

    A run always ends on a whole pass, so a workload whose pass is long
    still fills the whole window instead of stopping one pass short.
    Untraced passes only with ``trace`` off; otherwise alternating
    untraced and traced passes, at least one of each.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(len(plain) + len(traced)))
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(len(plain) + len(traced), tracer))
            finally:
                tracer.uninstall()
            if tracer.missing:
                print(f"perfbench: not traced (absent): {tracer.missing}",
                      file=sys.stderr)
        failed = any(not op.ok for p in plain + traced for op in p.ops)
        if failed or time.perf_counter() - start >= seconds:
            return plain, traced


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def command_seconds(runner, setups, plain, command) -> float:
    """Median seconds of one command: over passes when the timed loop runs
    it, else over the set-up repeats."""
    if any(step.command == command for step in runner.workload.steps):
        return _median(p.seconds(command) for p in plain)
    return _median(op.seconds for _, ops in setups for op in ops
                   if op.command == command)


def end_to_end(runner, setups, plain, import_s) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, further timings for the table)."""
    s = runner.settings
    # wall_s is the mean pass (timed seconds over passes): on a shared host
    # the CPU's speed drifts over tens of seconds, and the mean over the
    # whole window varies less from run to run than the median pass does.
    metrics = {
        "wall_s": (statistics.fmean(p.wall_s for p in plain) if plain else 0.0,
                   "s"),
        "setup_s": (import_s + _median(sec for sec, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    extra = {f"{c.replace('-', '_')}_s": (command_seconds(runner, setups, plain, c),
                                          "s")
             for c in spans.COMMANDS
             if any(step.command == c
                    for step in runner.workload.steps + runner.workload.setup_steps)}
    fits = runner.fits_per_pass()
    if fits:
        extra["fits_per_s"] = (_median(spans.ratio(fits, p.wall_s) for p in plain),
                               "1/s")
    if "simulate_s" in extra and "fit_population_s" in extra:
        # rows simulated, plus the independent rows the posterior is fitted on
        trials = s["sim_trials_per_subject"] * s["sim_subjects_per_treatment"]
        treatments = s["sim_treatments"]
        rows = trials * (len(treatments) + ("independent" in treatments))
        extra["rows_per_s"] = (spans.ratio(
            rows, extra["simulate_s"][0] + extra["fit_population_s"][0]), "1/s")
    extra["import_s"] = (import_s, "s")
    extra["wall_p50_s"] = (_median(p.wall_s for p in plain), "s")
    return metrics, extra


def per_layer(runner, plain, traced) -> dict:
    """Per-layer metrics: medians over the traced passes (all zero when an
    operation failed before any traced pass ran)."""
    layers = [spans.layer_metrics(p.spans) for p in traced] or [
        spans.layer_metrics([])]
    metrics = {name: (_median(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead_s"] = (
        _median(p.wall_s for p in traced) - _median(p.wall_s for p in plain), "s")
    identical, dtrain = [], []
    for p in traced:
        count, worst = 0, 0.0
        for op in p.ops:
            if op.snapshot is not None:
                _, same, delta = checks.compare(op.snapshot,
                                                runner.baseline[op.label])
                count, worst = count + same, max(worst, delta)
        identical.append(count)
        dtrain.append(worst)
    metrics["check.identical_artifacts"] = (_median(identical), "count")
    metrics["check.max_abs_dtrain_nll"] = (_median(dtrain), "nll")
    return metrics


def write_spans(path: Path, traced):
    with open(path, "w") as handle:
        for index, p in enumerate(traced):
            for span in p.spans:
                handle.write(json.dumps([index, *span]) + "\n")


def run(workload, seed: int, seconds: float, trace: bool, cli, import_s: float,
        reference=None, work_dir: Path | None = None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    work_dir = work_dir or WORK / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    settings = dataclasses.asdict(cli.RunConfig(**workload.config))
    runner = Runner(workload, seed, work_dir, reference, cli.main, settings)
    setups = [runner.setup_once(i) for i in range(SETUP_REPEATS)]
    ops = [op for _, setup_ops in setups for op in setup_ops]
    plain, traced = [], []
    if all(op.ok for op in ops):
        plain, traced = measure(runner, seconds, trace)
    ops += [op for p in plain + traced for op in p.ops]
    failed = sum(not op.ok for op in ops)

    metrics, extra = end_to_end(runner, setups, plain, import_s)
    if trace:
        extra.update(metrics)
        metrics = per_layer(runner, plain, traced)
        write_spans(work_dir / "spans.jsonl", traced)
    return {
        "workload": workload.name,
        "seed": seed,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "baseline": "reference" if runner.has_reference else "first pass",
        "table": {**extra, **metrics},
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": ops,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with rotating_cpus() as cpus:
        cli, import_s = import_program()
        import_s = _median([import_s] + [fresh_import_seconds()
                                         for _ in range(SETUP_REPEATS - 1)])
        workload = WORKLOADS[args.workload]
        reference = (load_reference(workload) if args.seed == RECORDED_SEED
                     else None)
        print("stamp " + json.dumps(stamp(cpus)))
        result = run(workload, args.seed, args.seconds, bool(args.trace), cli,
                     import_s, reference)
    print(f"workload {result['workload']} seed {result['seed']} "
          f"passes {result['passes']} baseline {result['baseline']}")
    result.pop("ops")
    for name, (value, unit) in sorted(result.pop("table").items()):
        print(f"  {name:<40} {value:>16.6f} {unit}")
    print(f"  ops_total {result['attempted']}  ops_failed {result['failed']}")
    with open(WORK / workload.name / "result.json", "w") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
