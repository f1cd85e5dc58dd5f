"""Behavior records and the CSV schema they travel in.

One record is one trial: who decided, under which assistance form, on
which task, with which payload, and what they finally chose.  The CSV
header is fixed as

    subject_id,treatment,trial_index,x_1..x_n,ai_rec,ai_conf,exp_mask,
    initial_decision,final_decision,crt_score

with ``exp_mask`` encoded as an n-character 0/1 string and absent
optionals left empty.  Lines starting with ``#`` are ignored so files may
carry a config-fingerprint comment.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .core import TaskInstance, _frozen_array
from .errors import ConfigurationError, DataValidationError

__all__ = [
    "Treatment",
    "BehaviorRecord",
    "ingest",
    "export_csv",
    "group_by_subject",
    "csv_header",
]


class Treatment(str, Enum):
    INDEPENDENT = "independent"
    IMMEDIATE = "immediate"
    DELAYED = "delayed"
    EXPLANATION = "explanation"


_FIXED_PREFIX = ["subject_id", "treatment", "trial_index"]
_FIXED_SUFFIX = ["ai_rec", "ai_conf", "exp_mask", "initial_decision",
                 "final_decision", "crt_score"]
# a file name holds at most 255 bytes, and fit-nudge appends ".txt"
_MAX_ID_BYTES = 255 - len(".txt")


def csv_header(n_features: int) -> list[str]:
    return (_FIXED_PREFIX
            + [f"x_{i + 1}" for i in range(n_features)]
            + _FIXED_SUFFIX)


@dataclass(frozen=True)
class BehaviorRecord:
    """One trial of one subject under one assistance form."""

    subject_id: str
    treatment: Treatment
    trial_index: int
    features: np.ndarray
    final_decision: int
    ai_recommendation: int | None = None
    ai_confidence: float | None = None
    explanation_mask: np.ndarray | None = None
    initial_decision: int | None = None
    crt_score: int | None = None

    def __post_init__(self):
        # ingest reads one line per row and skips lines that start with "#";
        # fit-nudge writes each subject's parameters to a file named after it
        sid = self.subject_id
        if sid.lstrip().startswith("#") or "\n" in sid or "\r" in sid:
            raise ConfigurationError("subject_id must not start with # or break a line")
        if (sid in (".", "..") or any(c in sid for c in "/\\\0")
                or len(sid.encode("utf-8", "surrogatepass")) > _MAX_ID_BYTES):
            raise ConfigurationError(
                "subject_id must be a file name: no /, \\ or NUL, not . or .., "
                f"and at most {_MAX_ID_BYTES} UTF-8 bytes")
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 1 or feats.size == 0:
            raise ConfigurationError("record features must be a nonempty vector")
        # one range test; NaN and +-inf fail it too
        if not ((feats >= 0.0) & (feats <= 1.0)).all():
            raise ConfigurationError("record features must lie in [0, 1]")
        object.__setattr__(self, "features", _frozen_array(feats))
        object.__setattr__(self, "treatment", Treatment(self.treatment))
        if self.final_decision not in (0, 1):
            raise ConfigurationError("final_decision must be 0 or 1")
        if self.crt_score is not None and self.crt_score not in (0, 1, 2, 3):
            raise ConfigurationError("crt_score must be in 0..3")
        if self.explanation_mask is not None:
            mask = np.asarray(self.explanation_mask, dtype=int)
            if mask.shape != feats.shape or not ((mask == 0) | (mask == 1)).all():
                raise ConfigurationError("explanation_mask must be 0/1 of feature length")
            object.__setattr__(self, "explanation_mask", _frozen_array(mask, dtype=int))
        self._check_payload()

    def _check_payload(self):
        t = self.treatment
        has = {
            "ai_rec": self.ai_recommendation is not None,
            "ai_conf": self.ai_confidence is not None,
            "exp_mask": self.explanation_mask is not None,
            "initial_decision": self.initial_decision is not None,
        }
        required = {
            Treatment.INDEPENDENT: set(),
            Treatment.IMMEDIATE: {"ai_rec", "ai_conf"},
            Treatment.DELAYED: {"ai_rec", "initial_decision"},
            Treatment.EXPLANATION: {"exp_mask"},
        }[t]
        for name, present in has.items():
            if name in required and not present:
                raise ConfigurationError(
                    f"{t.value} treatment requires {name}"
                )
            if name not in required and present:
                raise ConfigurationError(
                    f"{t.value} treatment must not carry {name}"
                )
        if self.ai_recommendation is not None and self.ai_recommendation not in (0, 1):
            raise ConfigurationError("ai_rec must be 0 or 1")
        if self.ai_confidence is not None and not 0.5 <= self.ai_confidence <= 1.0:
            raise ConfigurationError("ai_conf must lie in [0.5, 1]")
        if self.initial_decision is not None and self.initial_decision not in (0, 1):
            raise ConfigurationError("initial_decision must be 0 or 1")

    @property
    def n_features(self) -> int:
        return self.features.size

    def task(self) -> TaskInstance:
        return TaskInstance(features=self.features)


def _parse_row(row: dict[str, str], n_features: int, line: int) -> BehaviorRecord:
    def blank(name):
        return row[name] is None or row[name] == ""

    def req_int(name, allowed=None):
        if blank(name):
            raise ValueError(f"{name} is required")
        value = int(row[name])
        if allowed is not None and value not in allowed:
            raise ValueError(f"{name} must be one of {sorted(allowed)}")
        return value

    try:
        treatment = Treatment(row["treatment"])
    except ValueError:
        raise DataValidationError(
            f"line {line}: unknown treatment {row['treatment']!r}"
        ) from None

    features = np.empty(n_features)
    for i in range(n_features):
        name = f"x_{i + 1}"
        try:
            features[i] = float(row[name])
        except (TypeError, ValueError):
            raise DataValidationError(f"line {line}: {name} is not a number") from None
        if not 0.0 <= features[i] <= 1.0:
            raise DataValidationError(
                f"line {line}: {name} out of [0, 1]: {row[name]}"
            )

    try:
        kwargs = dict(
            subject_id=row["subject_id"],
            treatment=treatment,
            trial_index=req_int("trial_index"),
            features=features,
            final_decision=req_int("final_decision", allowed=(0, 1)),
            crt_score=None if blank("crt_score") else req_int("crt_score", (0, 1, 2, 3)),
        )
        if not blank("ai_rec"):
            kwargs["ai_recommendation"] = req_int("ai_rec", allowed=(0, 1))
        if not blank("ai_conf"):
            kwargs["ai_confidence"] = float(row["ai_conf"])
        if not blank("initial_decision"):
            kwargs["initial_decision"] = req_int("initial_decision", allowed=(0, 1))
        if not blank("exp_mask"):
            mask_text = row["exp_mask"]
            if len(mask_text) != n_features or set(mask_text) - {"0", "1"}:
                raise ValueError(f"exp_mask must be {n_features} characters of 0/1")
            kwargs["explanation_mask"] = np.array([int(c) for c in mask_text])
        return BehaviorRecord(**kwargs)
    except (ValueError, ConfigurationError) as exc:
        raise DataValidationError(f"line {line}: {exc}") from None


def ingest(path, skip_invalid: bool = False) -> list[BehaviorRecord]:
    """Read and validate a behavior CSV.

    Per-row problems are collected with their line numbers; a repeated
    (subject_id, trial_index) is a problem of the later row.  The whole run
    aborts on any invalid row unless ``skip_invalid`` is set, in which
    case offending rows are dropped.  Schema problems (missing or
    misordered columns) always abort.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"behavior file not found: {path}")
    with open(path, newline="") as handle:
        lines = [(i + 1, line) for i, line in enumerate(handle)
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise DataValidationError(f"{path} contains no data")

    header_line, header_text = lines[0]
    header = next(csv.reader([header_text]))
    feature_cols = [c for c in header if c.startswith("x_")]
    n_features = len(feature_cols)
    if n_features == 0 or header != csv_header(n_features):
        raise DataValidationError(
            f"line {header_line}: header does not match the behavior schema "
            f"(expected subject_id,treatment,trial_index,x_1..x_n,"
            f"ai_rec,ai_conf,exp_mask,initial_decision,final_decision,crt_score)"
        )

    records: list[BehaviorRecord] = []
    errors: list[str] = []
    first_line: dict[tuple[str, int], int] = {}
    for line_no, text in lines[1:]:
        values = next(csv.reader([text]))
        if len(values) != len(header):
            errors.append(f"line {line_no}: expected {len(header)} fields, "
                          f"got {len(values)}")
            continue
        row = dict(zip(header, values))
        try:
            record = _parse_row(row, n_features, line_no)
        except DataValidationError as exc:
            errors.append(str(exc))
            continue
        key = (record.subject_id, record.trial_index)
        if key in first_line:
            errors.append(f"line {line_no}: subject {key[0]!r} trial_index "
                          f"{key[1]} repeats line {first_line[key]}")
            continue
        first_line[key] = line_no
        records.append(record)

    # CRT score must be constant within a subject.
    seen_crt: dict[str, int | None] = {}
    for rec in records:
        if rec.subject_id not in seen_crt:
            seen_crt[rec.subject_id] = rec.crt_score
        elif seen_crt[rec.subject_id] != rec.crt_score:
            errors.append(
                f"subject {rec.subject_id}: crt_score is not constant across trials"
            )
            break

    if errors and not skip_invalid:
        raise DataValidationError(
            f"{path}: {len(errors)} invalid row(s)", row_errors=errors
        )
    return records


def _format_float(value: float) -> str:
    return repr(float(value))


def export_csv(records, path, fingerprint: str | None = None) -> None:
    """Write records in the ingest schema; ``ingest`` round-trips the output."""
    records = list(records)
    if not records:
        raise ConfigurationError("cannot export an empty record list")
    n = records[0].n_features
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        if fingerprint is not None:
            handle.write(f"# config_fingerprint={fingerprint}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(csv_header(n))
        for rec in records:
            if rec.n_features != n:
                raise ConfigurationError("records must share one dimensionality")
            mask = ("" if rec.explanation_mask is None
                    else "".join(str(int(b)) for b in rec.explanation_mask))
            writer.writerow(
                [rec.subject_id, rec.treatment.value, rec.trial_index]
                + [_format_float(v) for v in rec.features]
                + ["" if rec.ai_recommendation is None else rec.ai_recommendation,
                   "" if rec.ai_confidence is None else _format_float(rec.ai_confidence),
                   mask,
                   "" if rec.initial_decision is None else rec.initial_decision,
                   rec.final_decision,
                   "" if rec.crt_score is None else rec.crt_score]
            )


def group_by_subject(records) -> dict[str, list[BehaviorRecord]]:
    """Group records by subject id (sorted), trials ordered by trial_index."""
    groups: dict[str, list[BehaviorRecord]] = {}
    for rec in records:
        groups.setdefault(rec.subject_id, []).append(rec)
    return {
        sid: sorted(groups[sid], key=lambda r: r.trial_index)
        for sid in sorted(groups)
    }

