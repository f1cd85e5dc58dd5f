"""Self-tests of the benchmark itself, kept out of the project's test suite.

    python3 perfbench/selftest.py

They run the real workloads at a tiny size (a few subjects, a handful of
optimizer iterations), so they take seconds, not minutes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"sim_subjects_per_treatment": 5, "nudge_iterations": 5, "nudge_restarts": 1,
        "population_iterations": 5, "mc_ensemble_size": 50,
        "posthoc_permutations": 100, "run_seeds": [0], "train_sizes": [5]}
SEED = 3


def tiny(workload):
    return dataclasses.replace(workload, config={**workload.config, **TINY})


class BenchTestCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli, cls.import_s = run.import_program()
        cls.work = run.WORK / f"selftest-{cls.__name__}"
        shutil.rmtree(cls.work, ignore_errors=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def runner(self, workload, reference=None, name="runner"):
        settings = dataclasses.asdict(self.cli.RunConfig(**workload.config))
        return workloads.Runner(workload, SEED, self.work / name, reference,
                                self.cli.main, settings)


class TestMetricsPrinted(BenchTestCase):
    def test_every_benchmark_metric_is_reported_with_its_unit(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for name, workload in workloads.WORKLOADS.items():
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = run.run(tiny(workload), SEED, 0.0, trace, self.cli,
                                     self.import_s, work_dir=self.work / name)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    reported = {k: v["unit"] for k, v in result["metrics"].items()}
                    expected = {m["name"]: m["unit"] for m in bench[section]}
                    self.assertEqual(reported, expected)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_traced_counts_match_the_configured_work(self):
        workload = tiny(workloads.WORKLOADS["paper-pipeline"])
        result = run.run(workload, SEED, 0.0, True, self.cli, self.import_s,
                         work_dir=self.work / "counts")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runner = self.runner(workload)
        self.assertEqual(metrics["fitting.fits"], runner.fits_per_pass())
        restarts, iterations = TINY["nudge_restarts"], TINY["nudge_iterations"]
        # each fit: restarts x (iterations + 1) evaluations, then one more
        # for the reported train_nll
        self.assertEqual(metrics["fitting.objective_evals"],
                         metrics["fitting.fits"] * (restarts * (iterations + 1) + 1))
        self.assertEqual(metrics["core.elbo_calls"], TINY["population_iterations"] + 1)
        rows = 4 * TINY["sim_subjects_per_treatment"] * 30
        self.assertEqual(metrics["records.ingest_rows"], 5 * rows)


class TestOutputCheck(BenchTestCase):
    def test_edited_train_nll_trips_the_check(self):
        runner = self.runner(tiny(workloads.WORKLOADS["paper-pipeline"]))
        runner.setup_once(0)
        clean = runner.run_pass(0)
        self.assertTrue(all(op.ok for op in clean.ops))
        op = next(o for o in clean.ops if o.command == "fit-nudge")

        effects = runner.work_dir / "pass-0" / "effects.csv"
        lines = effects.read_text().splitlines()
        header = lines[1].split(",")
        row = lines[2].split(",")
        column = header.index("train_nll")
        row[column] = repr(float(row[column]) + 0.01)
        lines[2] = ",".join(row)
        effects.write_text("\n".join(lines) + "\n")

        edited = checks.snapshot("fit-nudge", (), effects.parent, runner.settings)
        errors, identical, dtrain = checks.compare(edited, op.snapshot)
        self.assertTrue(any("train_nll" in e for e in errors), errors)
        self.assertAlmostEqual(dtrain, 0.01, places=9)
        self.assertEqual(identical, len(op.snapshot["artifacts"]) - 1)

        row[column] = "-1.0"
        lines[2] = ",".join(row)
        effects.write_text("\n".join(lines) + "\n")
        with self.assertRaises(checks.CheckError):
            checks.structural_check("fit-nudge", (), effects.parent, runner.settings)

    def test_operation_fails_when_the_baseline_disagrees(self):
        workload = tiny(workloads.WORKLOADS["paper-pipeline"])
        first = self.runner(workload, name="first")
        first.setup_once(0)
        reference = {op.label: op.snapshot for op in first.run_pass(0).ops}
        key = next(k for k in reference["fit-population --data"]["values"])
        reference["fit-population --data"]["values"][key] += 1.0
        second = self.runner(workload, reference, name="second")
        second.setup_once(0)
        ops = second.run_pass(0).ops
        self.assertEqual([op.ok for op in ops], [True, False])


class TestSelfTime(unittest.TestCase):
    def test_nested_trace(self):
        S = spans.Span
        trace = [
            S("root", 0.0, 10.0, -1, None),
            S("a", 1.0, 4.0, 0, None),
            S("a.child", 2.0, 3.0, 1, None),
            S("b", 3.5, 6.0, 0, None),      # overlaps a: the union counts once
            S("c", 9.0, 12.0, 0, None),     # runs past root: clipped to root
            S("other", 20.0, 21.0, -1, None),
        ]
        own = spans.self_times(trace)
        self.assertEqual(own, [10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0, 1.0])

    def test_covered_and_percentile(self):
        self.assertEqual(spans.covered([(0, 1), (0.5, 2), (3, 4)]), 3.0)
        self.assertEqual(spans.covered([]), 0.0)
        self.assertEqual(spans.percentile([5, 1, 3, 2, 4], 50), 3.0)
        self.assertEqual(spans.percentile(list(range(1, 101)), 99), 99.0)
        self.assertEqual(spans.percentile([], 50), 0.0)


class TestWrappers(BenchTestCase):
    def test_wrappers_replace_every_lookup_site_and_restore_it(self):
        import nudgelab
        from nudgelab import cli, core, evaluate, fitting, nudge, simulate

        sites = [(fitting, "fit_nudge"), (cli, "fit_nudge"), (evaluate, "fit_nudge"),
                 (nudgelab, "fit_nudge"), (evaluate, "decision_probability"),
                 (nudge, "decision_probability"), (simulate, "predict_delayed"),
                 (core, "elbo_and_gradient"), (cli, "ingest"),
                 (fitting.NudgeObjective, "value_and_gradient")]
        originals = {site: getattr(*site) for site in sites}
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            for (owner, attr), original in originals.items():
                wrapped = getattr(owner, attr)
                self.assertIsNot(wrapped, original, attr)
                self.assertIs(wrapped.__wrapped__, original, attr)
        finally:
            tracer.uninstall()
        for (owner, attr), original in originals.items():
            self.assertIs(getattr(owner, attr), original, attr)


class TestCpuRotation(unittest.TestCase):
    def test_rotation_visits_every_cpu_and_restores_the_mask(self):
        import os
        import time

        before = os.sched_getaffinity(0)
        seen = set()
        with run.rotating_cpus(period=0.01) as cpus:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                seen.add(frozenset(os.sched_getaffinity(0)))
        self.assertEqual(cpus, sorted(before))
        if len(cpus) > 1:
            self.assertLessEqual({frozenset({cpu}) for cpu in cpus}, seen)
        self.assertEqual(os.sched_getaffinity(0), before)
        self.assertFalse(any(t.name == "cpu-rotation" for t in threading.enumerate()))


if __name__ == "__main__":
    unittest.main()
