"""In-memory span tracing from outside the program, and per-layer metrics.

The tracer wraps public functions of the nudgelab modules.  Modules import
each other's functions by name (``from .fitting import fit_nudge``), so a
wrapper replaces the function at every module attribute that holds it:
``nudgelab.fitting.fit_nudge``, ``nudgelab.cli.fit_nudge``,
``nudgelab.evaluate.fit_nudge`` and the package re-export alike.  A method
is replaced once, on its class.  ``uninstall`` puts every original back.

A span is ``(name, start, end, parent, note)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``note`` is what the target's
``note`` function read from the call, such as a row count or whether a fit
converged.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    note: object


class Target(NamedTuple):
    module: str
    attr: str                     # "func" or "Class.method"
    span: str                     # span name
    note: Callable | None = None  # note(args, kwargs, result) -> object


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _fit_note(args, kwargs, result):
    treatment = _arg(args, kwargs, 2, "treatment")
    return str(getattr(treatment, "value", treatment)), bool(result.converged)


def _length(args, kwargs, result):
    return len(result)


def _permutations(args, kwargs, result):
    return int(kwargs.get("n_permutations", args[1] if len(args) > 1 else 10000))


# The layer boundaries: public functions of each module at the parent commit.
TARGETS = (
    Target("nudgelab.records", "ingest", "records.ingest", _length),
    Target("nudgelab.records", "export_csv", "records.export_csv"),
    Target("nudgelab.simulate", "generate_behavior", "simulate.generate_behavior",
           _length),
    Target("nudgelab.core", "fit_population", "core.fit_population"),
    Target("nudgelab.core", "elbo_and_gradient", "core.elbo_and_gradient"),
    Target("nudgelab.nudge", "predict_immediate", "nudge.predict"),
    Target("nudgelab.nudge", "predict_delayed", "nudge.predict"),
    Target("nudgelab.nudge", "predict_explanation", "nudge.predict"),
    Target("nudgelab.nudge", "decision_probability", "nudge.decision_probability"),
    Target("nudgelab.fitting", "fit_nudge", "fitting.fit", _fit_note),
    Target("nudgelab.fitting", "fit_nudge_deterministic_ablation",
           "fitting.fit_ablation", _fit_note),
    Target("nudgelab.fitting", "NudgeObjective.value_and_gradient",
           "fitting.objective"),
    Target("nudgelab.evaluate", "evaluate_framework", "evaluate.framework"),
    Target("nudgelab.evaluate", "baseline_logistic", "evaluate.baseline_logistic"),
    Target("nudgelab.evaluate", "learning_curve", "evaluate.learning_curve"),
    Target("nudgelab.analyze", "one_way_anova", "analyze.one_way_anova"),
    Target("nudgelab.analyze", "pairwise_posthoc", "analyze.pairwise_posthoc",
           _permutations),
)

FIT_SPANS = ("fitting.fit", "fitting.fit_ablation")
COMMANDS = ("simulate", "fit-population", "fit-nudge", "evaluate",
            "learning-curve", "analyze")


class Tracer:
    """Records spans around wrapped functions; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, None)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index, name, start, note):
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = Span(name, start, end, parent, note)

    def wrap(self, fn, name: str, note=None):
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, name, start,
                            None if note is None or result is None
                            else note(args, kwargs, result))

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=TARGETS):
        """Replace each target at every lookup site; skip absent targets."""
        for target in targets:
            module = sys.modules.get(target.module)
            owner_name, _, method = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or target.attr, None)
            if original is None:
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapper = self.wrap(original, target.span, target.note)
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for site in [m for n, m in list(sys.modules.items())
                         if n == "nudgelab" or n.startswith("nudgelab.")]:
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        kids = [(max(c.start, span.start), min(c.end, span.end))
                for c in children.get(index, ())]
        out.append(span.end - span.start - covered(k for k in kids if k[0] < k[1]))
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _ancestor(spans, index, names):
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return parent
        parent = spans[parent].parent
    return -1


def ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A metric whose layer the pass never entered reads 0.
    """
    by_name = defaultdict(list)
    for index, span in enumerate(spans):
        by_name[span.name].append(index)

    def durations(name):
        return [spans[i].end - spans[i].start for i in by_name[name]]

    def total(name):
        return sum(durations(name))

    def notes(name):
        return [spans[i].note for i in by_name[name] if spans[i].note is not None]

    m: dict[str, tuple[float, str]] = {}

    fits = [i for name in FIT_SPANS for i in by_name[name]]
    fit_seconds = [spans[i].end - spans[i].start for i in fits]
    objective = defaultdict(list)
    for i in by_name["fitting.objective"]:
        fit = _ancestor(spans, i, FIT_SPANS)
        if fit < 0 or spans[fit].note is None:
            label = "unknown"
        elif spans[fit].name == "fitting.fit_ablation":
            label = "ablation"
        else:
            label = spans[fit].note[0]
        objective[label].append(spans[i].end - spans[i].start)
    m["fitting.objective_evals"] = (len(by_name["fitting.objective"]), "count")
    for label in ("immediate", "delayed", "ablation", "explanation"):
        m[f"fitting.objective_us_p50.{label}"] = (
            1e6 * percentile(objective[label], 50), "us")
    m["fitting.fits"] = (len(fits), "count")
    m["fitting.fit_s_p50"] = (percentile(fit_seconds, 50), "s")
    m["fitting.fit_s_p90"] = (percentile(fit_seconds, 90), "s")
    m["fitting.objective_share"] = (
        ratio(total("fitting.objective"), sum(fit_seconds)), "ratio")
    converged = [spans[i].note[1] for i in fits if spans[i].note is not None]
    m["fitting.converged_ratio"] = (ratio(sum(converged), len(fits)), "ratio")

    elbo = durations("core.elbo_and_gradient")
    m["core.elbo_calls"] = (len(elbo), "count")
    m["core.elbo_us_p50"] = (1e6 * percentile(elbo, 50), "us")
    m["core.elbo_us_p99"] = (1e6 * percentile(elbo, 99), "us")

    rows = sum(notes("records.ingest"))
    m["records.ingest_rows"] = (rows, "count")
    m["records.ingest_rows_per_s"] = (ratio(rows, total("records.ingest")), "1/s")
    m["records.export_s"] = (total("records.export_csv"), "s")

    m["simulate.records_per_s"] = (
        ratio(sum(notes("simulate.generate_behavior")),
               total("simulate.generate_behavior")), "1/s")

    predict = durations("nudge.predict")
    m["nudge.predict_calls"] = (len(predict), "count")
    m["nudge.predict_us_p50"] = (1e6 * percentile(predict, 50), "us")
    decision = durations("nudge.decision_probability")
    m["nudge.decision_probability_calls"] = (len(decision), "count")
    m["nudge.decision_probability_us_p50"] = (1e6 * percentile(decision, 50), "us")

    scopes = ("evaluate.framework", "evaluate.learning_curve")
    fit_in_scope = [(spans[i].start, spans[i].end) for i in fits
                    if _ancestor(spans, i, scopes) >= 0]
    framework = [(spans[i].start, spans[i].end) for i in by_name["evaluate.framework"]]
    framework_fits = [(spans[i].start, spans[i].end) for i in fits
                      if _ancestor(spans, i, ("evaluate.framework",)) >= 0]
    m["evaluate.score_s"] = (
        sum(e - s for s, e in framework) - covered(framework_fits), "s")
    m["evaluate.baseline_logistic_s"] = (total("evaluate.baseline_logistic"), "s")
    m["evaluate.fit_share"] = (
        ratio(covered(fit_in_scope), sum(total(s) for s in scopes)), "ratio")

    m["analyze.pairwise_posthoc_s"] = (total("analyze.pairwise_posthoc"), "s")
    m["analyze.permutations"] = (sum(notes("analyze.pairwise_posthoc")), "count")

    own = self_times(spans)
    for command in COMMANDS:
        m[f"cli.self_s.{command}"] = (
            sum(own[i] for i in by_name[f"cli.{command}"]), "s")
    return m
