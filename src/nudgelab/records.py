"""Behavior trials and the CSV schema they travel in.

A ``Trials`` table holds the trials as columns, one row per trial: who
decided, under which assistance form, on which task, with which payload,
and what they finally chose.  The CSV header is fixed as

    subject_id,treatment,trial_index,x_1..x_n,ai_rec,ai_conf,exp_mask,
    initial_decision,final_decision,crt_score

with ``exp_mask`` encoded as an n-character 0/1 string and absent
optionals left empty.  Lines starting with ``#`` are ignored so files may
carry a config-fingerprint comment.
"""

from __future__ import annotations

import csv
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataValidationError, open_input

__all__ = [
    "Treatment",
    "Trials",
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

    # numpy converts a scalar operand with str(), so str() must be the
    # value for ``trials.treatment == Treatment.IMMEDIATE`` to compare values
    __str__ = str.__str__


_FIXED_SUFFIX = ["ai_rec", "ai_conf", "exp_mask", "initial_decision",
                 "final_decision", "crt_score"]
# a file name holds at most 255 bytes, and fit-nudge appends ".txt"
_MAX_ID_BYTES = 255 - len(".txt")
# the optional columns in the order of ``Trials.present``, each with the
# placeholder of the rows that do not carry it; the first four are the payload
_OPTIONAL = {"ai_recommendation": -1, "ai_confidence": np.nan,
             "explanation_mask": -1, "initial_decision": -1, "crt_score": -1}
# which payload fields each treatment requires (the others it must not carry)
_PAYLOAD_REQUIRED = {
    Treatment.INDEPENDENT: (False, False, False, False),
    Treatment.IMMEDIATE: (True, True, False, False),
    Treatment.DELAYED: (True, False, False, True),
    Treatment.EXPLANATION: (False, False, True, False),
}
# (column, treatment, required, message) of each payload rule, field by field;
# the messages name the fields as the CSV header does
_PAYLOAD_RULES = [
    (name, t, needs, f"{t.value} treatment {'requires' if needs else 'must not carry'} "
                     f"{field}")
    for name, field, required in zip(_OPTIONAL, _FIXED_SUFFIX,
                                     zip(*_PAYLOAD_REQUIRED.values()))
    for t, needs in zip(_PAYLOAD_REQUIRED, required)]
_COLUMNS = ("subject_id", "treatment", "trial_index", "features",
            "final_decision", *_OPTIONAL, "present")


def csv_header(n_features: int) -> list[str]:
    return ["subject_id", "treatment", "trial_index",
            *(f"x_{i + 1}" for i in range(n_features)), *_FIXED_SUFFIX]


class Trials:
    """Behavior trials as one frozen table of columns: N rows, n features.

    ``subject_id`` (str) and ``treatment`` are object arrays; ``features``
    and ``explanation_mask`` are N x n.  ``present`` (N x 5) marks the rows
    that carry each optional column, from ``ai_recommendation`` on; other
    rows hold -1 there (NaN for the confidence).  The constructor takes an
    entry per row in each column, None where a row lacks an optional one,
    and raises the ConfigurationError of the first failing row's first
    broken rule."""

    __slots__ = _COLUMNS

    def __new__(cls, subject_id, treatment, trial_index, features,
                final_decision, ai_recommendation=None, ai_confidence=None,
                explanation_mask=None, initial_decision=None, crt_score=None):
        columns = _columns(subject_id, treatment, trial_index, features,
                           final_decision, ai_recommendation, ai_confidence,
                           explanation_mask, initial_decision, crt_score)
        errors = _row_errors(columns)
        if errors:
            raise ConfigurationError(next(iter(errors.values())))
        return _table(columns)

    @classmethod
    def concat(cls, tables) -> Trials:
        """The rows of ``tables``, a list of at least one, one after another."""
        return _table({name: np.concatenate([getattr(t, name) for t in tables])
                       for name in _COLUMNS})

    def take(self, rows) -> Trials:
        """The table of ``rows``: an index array, a boolean mask or a slice."""
        return _table({name: getattr(self, name)[rows] for name in _COLUMNS})

    def optional(self, name: str) -> list:
        """An optional column as Python values, None where a row lacks it."""
        present = self.present[:, list(_OPTIONAL).index(name)].tolist()
        return [value if has else None
                for value, has in zip(getattr(self, name).tolist(), present)]

    def __len__(self) -> int:
        return len(self.subject_id)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __setattr__(self, name, value):
        raise AttributeError("Trials is frozen")


def _table(columns: dict) -> Trials:
    """The table of normalized ``columns``, unchecked."""
    table = object.__new__(Trials)
    for name in _COLUMNS:
        columns[name].setflags(write=False)
        object.__setattr__(table, name, columns[name])
    return table


def _columns(subject_id, treatment, trial_index, features, final_decision,
             *optional) -> dict:
    """The columns given to ``Trials``, normalized and checked for shape."""
    features = np.array(features, dtype=float)
    if features.ndim != 2 or features.shape[1] == 0:
        raise ConfigurationError("features must be an N x n array with n >= 1")
    n_rows, n_features = features.shape
    columns = {
        "subject_id": np.array(list(subject_id), dtype=object),
        "treatment": np.array([Treatment(t) for t in treatment], dtype=object),
        "trial_index": np.array(trial_index, dtype=np.int64),
        "features": features,
        "final_decision": np.array(final_decision, dtype=np.int64),
    }
    present = []
    for (name, blank), values in zip(_OPTIONAL.items(), optional):
        values = [None] * n_rows if values is None else list(values)
        present.append([v is not None for v in values])
        shape = (n_rows,)
        if name == "explanation_mask":
            # a mask of the wrong length becomes -1s, which the mask rule rejects
            shape, blank = (n_rows, n_features), [blank] * n_features
            values = [v if v is None or len(v) == n_features else None for v in values]
        columns[name] = np.array([blank if v is None else v for v in values],
                                 dtype=float if name == "ai_confidence" else np.int64
                                 ).reshape(shape)
    columns["present"] = np.array(present, dtype=bool).T
    if any(len(column) != n_rows for column in columns.values()):
        raise ConfigurationError("every trial column must hold one entry per row")
    return columns


def _row_errors(columns) -> dict[int, str]:
    """Each failing row's first broken rule: {row: message}, one mask a rule."""
    ids = columns["subject_id"].tolist()
    has = dict(zip(_OPTIONAL, columns["present"].T))
    features, conf = columns["features"], columns["ai_confidence"]
    is_treatment = {t: columns["treatment"] == t for t in Treatment}

    def beyond(name, high):
        """Where an integer column is not in 0..high."""
        return (columns[name] < 0) | (columns[name] > high)

    distinct = set(ids)

    def per_id(test):
        """``test`` of each row's id, run once per distinct id."""
        verdict = {s: test(s) for s in distinct}
        return [verdict[s] for s in ids]

    rules = [
        (per_id(lambda s: s.lstrip().startswith("#") or "\n" in s or "\r" in s),
         "subject_id must not start with # or break a line"),
        (per_id(lambda s: s in (".", "..") or any(c in s for c in "/\\\0")
                or len(s.encode("utf-8", "surrogatepass")) > _MAX_ID_BYTES),
         "subject_id must be a file name: no /, \\ or NUL, not . or .., "
         f"and at most {_MAX_ID_BYTES} UTF-8 bytes"),
        # NaN and +-inf fail the range test too
        (~((features >= 0.0) & (features <= 1.0)).all(axis=1),
         "record features must lie in [0, 1]"),
        (beyond("final_decision", 1), "final_decision must be 0 or 1"),
        (has["crt_score"] & beyond("crt_score", 3), "crt_score must be in 0..3"),
        (has["explanation_mask"] & beyond("explanation_mask", 1).any(axis=1),
         "explanation_mask must be 0/1 of feature length"),
        *((is_treatment[t] & (has[name] != needs), message)
          for name, t, needs, message in _PAYLOAD_RULES),
        (has["ai_recommendation"] & beyond("ai_recommendation", 1),
         "ai_rec must be 0 or 1"),
        (has["ai_confidence"] & ~((conf >= 0.5) & (conf <= 1.0)),
         "ai_conf must lie in [0.5, 1]"),
        (has["initial_decision"] & beyond("initial_decision", 1),
         "initial_decision must be 0 or 1"),
    ]
    first = np.full(len(ids), len(rules))
    for index in reversed(range(len(rules))):
        first[np.asarray(rules[index][0], dtype=bool)] = index
    return {row: rules[first[row]][1]
            for row in np.flatnonzero(first < len(rules)).tolist()}


def _required_int(name, text, allowed=None):
    if text == "":
        raise ValueError(f"{name} is required")
    value = int(text)
    if allowed is not None and value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(allowed)}")
    return value


def _converted(values: list[str], n_features: int) -> tuple:
    """A data row's fields as ``Trials`` column values, None where empty."""
    subject_id, treatment, trial_index = values[:3]
    ai_rec, ai_conf, exp_mask, initial, final, crt = values[3 + n_features:]
    try:
        treatment = Treatment(treatment)
    except ValueError:
        raise ValueError(f"unknown treatment {treatment!r}") from None

    features = []
    for i, text in enumerate(values[3:3 + n_features], 1):
        try:
            features.append(float(text))
        except ValueError:
            raise ValueError(f"x_{i} is not a number") from None
        if not 0.0 <= features[-1] <= 1.0:
            raise ValueError(f"x_{i} out of [0, 1]: {text}")

    trial_index = _required_int("trial_index", trial_index)
    if not -2 ** 63 <= trial_index < 2 ** 63:
        raise ValueError("trial_index must fit in 64 bits")
    final = _required_int("final_decision", final, (0, 1))
    crt = None if crt == "" else _required_int("crt_score", crt, (0, 1, 2, 3))
    ai_rec = None if ai_rec == "" else _required_int("ai_rec", ai_rec, (0, 1))
    ai_conf = None if ai_conf == "" else float(ai_conf)
    initial = (None if initial == ""
               else _required_int("initial_decision", initial, (0, 1)))
    if exp_mask and (len(exp_mask) != n_features or set(exp_mask) - {"0", "1"}):
        raise ValueError(f"exp_mask must be {n_features} characters of 0/1")
    mask = [int(c) for c in exp_mask] if exp_mask else None
    return (subject_id, treatment, trial_index, features, final,
            ai_rec, ai_conf, mask, initial, crt)


def ingest(path, skip_invalid: bool = False) -> Trials:
    """Read and validate a behavior CSV.

    Each row's first problem is collected with its line number: a field
    that does not convert, a rule of ``Trials``, or a (subject_id,
    trial_index) that repeats an earlier row's.  Any invalid row aborts the
    read unless ``skip_invalid`` is set, which drops those rows.  A schema
    problem, a file that cannot be read and a line the csv module cannot
    parse always abort.
    """
    path = Path(path)
    if not path.exists():
        raise DataValidationError(f"behavior file not found: {path}")
    with open_input(path, "behavior file", newline="") as handle:
        lines = [(i + 1, line) for i, line in enumerate(handle)
                 if line.strip() and not line.lstrip().startswith("#")]
    if not lines:
        raise DataValidationError(f"{path} contains no data")

    def fields(line_no, text):
        """The line's fields; the csv module refuses a field over its limit."""
        try:
            return next(csv.reader([text]))
        except csv.Error as exc:
            raise DataValidationError(
                f"cannot read behavior file {path}: line {line_no}: {exc}") from None

    header_line, header = lines[0][0], fields(*lines[0])
    n_features = sum(c.startswith("x_") for c in header)
    if n_features == 0 or header != csv_header(n_features):
        raise DataValidationError(
            f"line {header_line}: header does not match the behavior schema "
            f"(expected subject_id,treatment,trial_index,x_1..x_n,"
            f"ai_rec,ai_conf,exp_mask,initial_decision,final_decision,crt_score)"
        )

    errors: dict[int, str] = {}
    rows, row_lines = [], []
    for line_no, text in lines[1:]:
        values = fields(line_no, text)
        try:
            if len(values) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(values)}")
            rows.append(_converted(values, n_features))
            row_lines.append(line_no)
        except ValueError as exc:
            errors[line_no] = f"line {line_no}: {exc}"

    empty = ([], [], [], np.empty((0, n_features)), []) + (None,) * len(_OPTIONAL)
    columns = _columns(*(list(zip(*rows)) or empty))
    invalid = _row_errors(columns)
    keep: list[int] = []
    first_line: dict[tuple[str, int], int] = {}
    keys = zip(columns["subject_id"].tolist(), columns["trial_index"].tolist())
    for row, (line_no, key) in enumerate(zip(row_lines, keys)):
        if row in invalid:
            errors[line_no] = f"line {line_no}: {invalid[row]}"
        elif key in first_line:
            errors[line_no] = (f"line {line_no}: subject {key[0]!r} trial_index "
                               f"{key[1]} repeats line {first_line[key]}")
        else:
            first_line[key] = line_no
            keep.append(row)
    trials = _table(columns).take(np.array(keep, dtype=np.intp))
    errors = [errors[line_no] for line_no in sorted(errors)]

    # CRT score must be constant within a subject.
    seen_crt: dict[str, int | None] = {}
    for sid, crt in zip(trials.subject_id.tolist(), trials.optional("crt_score")):
        if seen_crt.setdefault(sid, crt) != crt:
            errors.append(f"subject {sid}: crt_score is not constant across trials")
            break

    if errors and not skip_invalid:
        raise DataValidationError(
            f"{path}: {len(errors)} invalid row(s)", row_errors=errors
        )
    return trials


def export_csv(trials: Trials, path, fingerprint: str | None = None) -> None:
    """Write a table in the ingest schema; ``ingest`` round-trips the output.
    Floats are written as ``repr``, the shortest text of the same bits."""
    if not len(trials):
        raise ConfigurationError("cannot export an empty table")

    def text(name, form=str):
        return ["" if v is None else form(v) for v in trials.optional(name)]

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        if fingerprint is not None:
            handle.write(f"# config_fingerprint={fingerprint}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(csv_header(trials.n_features))
        writer.writerows(zip(
            trials.subject_id.tolist(), [t.value for t in trials.treatment.tolist()],
            trials.trial_index.tolist(),
            *([repr(v) for v in column] for column in trials.features.T.tolist()),
            text("ai_recommendation"), text("ai_confidence", repr),
            text("explanation_mask", lambda mask: "".join(map(str, mask))),
            text("initial_decision"), trials.final_decision.tolist(),
            text("crt_score")))


def group_by_subject(trials: Trials) -> dict[str, Trials]:
    """Each subject's trials, subjects sorted, rows stably by trial_index."""
    ids, subject = np.unique(trials.subject_id, return_inverse=True)
    order = np.lexsort((trials.trial_index, subject))
    cuts = np.cumsum(np.bincount(subject, minlength=len(ids)))[:-1]
    return {sid: trials.take(rows)
            for sid, rows in zip(ids.tolist(), np.split(order, cuts))}
