"""Behavior trials: validation, CSV schema, round-trips."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgelab import ConfigurationError, Treatment, Trials
from nudgelab.errors import DataValidationError
from nudgelab.records import _OPTIONAL, csv_header, export_csv, group_by_subject, ingest

from conftest import one_trial, trials_of


def immediate_record(sid="s1", idx=0, crt=2):
    return dict(
        subject_id=sid, treatment=Treatment.IMMEDIATE, trial_index=idx,
        features=[0.25, 0.5, 0.75], final_decision=1,
        ai_recommendation=1, ai_confidence=0.875, crt_score=crt,
    )


def sample_records():
    return trials_of([
        immediate_record(idx=0),
        immediate_record(idx=1),
        dict(subject_id="s2", treatment=Treatment.DELAYED, trial_index=0,
             features=[0.0, 1.0, 0.3], final_decision=0,
             ai_recommendation=0, initial_decision=1, crt_score=0),
        dict(subject_id="s3", treatment=Treatment.EXPLANATION,
             trial_index=0, features=[0.1, 0.2, 0.3], final_decision=1,
             explanation_mask=[1, 1, 0], crt_score=3),
        dict(subject_id="s4", treatment=Treatment.INDEPENDENT,
             trial_index=0, features=[0.9, 0.8, 0.7], final_decision=0),
    ])


def rows_of(trials):
    """Each row of a table as a dict of Python values, None for an optional
    field the row does not carry."""
    columns = {
        "subject_id": trials.subject_id.tolist(),
        "treatment": trials.treatment.tolist(),
        "trial_index": trials.trial_index.tolist(),
        "features": trials.features.tolist(),
        "final_decision": trials.final_decision.tolist(),
        **{name: trials.optional(name) for name in _OPTIONAL},
    }
    return [dict(zip(columns, values)) for values in zip(*columns.values())]


class TestRecordValidation:
    def test_payload_must_match_treatment(self):
        with pytest.raises(ConfigurationError):
            one_trial(subject_id="x", treatment=Treatment.DELAYED,
                      trial_index=0, features=[0.5], final_decision=1,
                      ai_recommendation=1)  # initial_decision missing
        with pytest.raises(ConfigurationError):
            one_trial(subject_id="x", treatment=Treatment.INDEPENDENT,
                      trial_index=0, features=[0.5], final_decision=1,
                      ai_confidence=0.7)  # stray payload

    def test_confidence_range(self):
        with pytest.raises(ConfigurationError):
            one_trial(subject_id="x", treatment=Treatment.IMMEDIATE,
                      trial_index=0, features=[0.5], final_decision=1,
                      ai_recommendation=1, ai_confidence=0.3)

    def test_subject_id_must_fit_one_csv_line(self):
        for subject_id in ("#s1", "  # s1", "s\n1", "s\r1"):
            with pytest.raises(ConfigurationError):
                one_trial(subject_id=subject_id, treatment=Treatment.INDEPENDENT,
                          trial_index=0, features=[0.5], final_decision=1)

    def test_subject_id_must_be_a_file_name(self):
        for subject_id in ("../escaped", "a/b", "a\\b", "a\0b", ".", "..",
                           "s" * 252, "\u00e9" * 126):
            with pytest.raises(ConfigurationError):
                one_trial(subject_id=subject_id, treatment=Treatment.INDEPENDENT,
                          trial_index=0, features=[0.5], final_decision=1)
        record = one_trial(subject_id="...", treatment=Treatment.INDEPENDENT,
                           trial_index=0, features=[0.5], final_decision=1)
        assert record.subject_id[0] == "..."
        longest = one_trial(subject_id="s" * 251, treatment=Treatment.INDEPENDENT,
                            trial_index=0, features=[0.5], final_decision=1)
        assert len(longest.subject_id[0]) == 251

    def test_feature_range(self):
        for bad in (1.5, -0.25, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError,
                               match=r"record features must lie in \[0, 1\]"):
                one_trial(subject_id="x", treatment=Treatment.INDEPENDENT,
                          trial_index=0, features=[0.5, bad],
                          final_decision=1)
        record = one_trial(subject_id="x", treatment=Treatment.INDEPENDENT,
                           trial_index=0, features=[0.0, 1.0],
                           final_decision=1)
        assert record.features[0].tolist() == [0.0, 1.0]

    def test_explanation_mask_is_zero_one_of_feature_length(self):
        for bad in ([1, 2], [-1, 0], [1], [1, 0, 1]):
            with pytest.raises(ConfigurationError,
                               match="explanation_mask must be 0/1 of feature length"):
                one_trial(subject_id="x", treatment=Treatment.EXPLANATION,
                          trial_index=0, features=[0.5, 0.5],
                          final_decision=1, explanation_mask=bad)


def _id_text(text):
    """Text that may follow a subject id's leading characters."""
    return not any(c in text for c in "\n\r/\\\0")


@st.composite
def record_lists(draw):
    """Records of every treatment, several trials per subject, one dimension."""
    n = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    bit = st.integers(0, 1)
    records = []
    for s, treatment in enumerate(draw(st.lists(st.sampled_from(Treatment),
                                                min_size=1, max_size=5))):
        # the subject number keeps ids distinct; the text tests CSV quoting
        subject_id = f"s{s}{draw(st.text(max_size=4).filter(_id_text))}"
        crt = draw(st.none() | st.integers(0, 3))
        for index in draw(st.sets(st.integers(-5, 10**6), min_size=1, max_size=3)):
            payload = {}
            if treatment in (Treatment.IMMEDIATE, Treatment.DELAYED):
                payload["ai_recommendation"] = draw(bit)
            if treatment == Treatment.IMMEDIATE:
                payload["ai_confidence"] = draw(st.floats(0.5, 1.0))
            if treatment == Treatment.DELAYED:
                payload["initial_decision"] = draw(bit)
            if treatment == Treatment.EXPLANATION:
                payload["explanation_mask"] = draw(st.lists(bit, min_size=n,
                                                            max_size=n))
            records.append(dict(
                subject_id=subject_id, treatment=treatment, trial_index=index,
                features=draw(st.lists(unit, min_size=n, max_size=n)),
                final_decision=draw(bit), crt_score=crt, **payload))
    return trials_of(records)


class TestCsvRoundTrip:
    def test_export_then_ingest_losslessly(self, tmp_path):
        self._check_round_trip(sample_records(), tmp_path / "behavior.csv")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=record_lists())
    def test_round_trip_of_random_records(self, tmp_path, records):
        self._check_round_trip(records, tmp_path / "random.csv")

    @staticmethod
    def _check_round_trip(records, path):
        export_csv(records, path, fingerprint="cafe1234")
        loaded = ingest(path)
        assert len(loaded) == len(records)
        for a, b in zip(rows_of(records), rows_of(loaded)):
            assert a["subject_id"] == b["subject_id"]
            assert a["treatment"] == b["treatment"]
            assert a["trial_index"] == b["trial_index"]
            assert np.array_equal(a["features"], b["features"])
            assert a["final_decision"] == b["final_decision"]
            assert a["ai_recommendation"] == b["ai_recommendation"]
            assert a["ai_confidence"] == b["ai_confidence"]
            assert a["initial_decision"] == b["initial_decision"]
            assert a["crt_score"] == b["crt_score"]
            if a["explanation_mask"] is None:
                assert b["explanation_mask"] is None
            else:
                assert np.array_equal(a["explanation_mask"], b["explanation_mask"])

    def test_well_formed_file_parses(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(
            ",".join(csv_header(2)) + "\n"
            "a,independent,0,0.1,0.2,,,,,1,\n"
            "a,independent,1,0.3,0.4,,,,,0,\n"
            "b,immediate,0,0.5,0.6,1,0.9,,,1,2\n"
        )
        assert len(ingest(path)) == 3

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,treatment\nx,independent\n")
        with pytest.raises(DataValidationError, match="header"):
            ingest(path)

    def test_missing_initial_decision_cites_rule(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(csv_header(1)) + "\n"
            "a,delayed,0,0.5,1,,,,1,\n"
        )
        with pytest.raises(DataValidationError) as err:
            ingest(path)
        assert any("initial_decision" in e for e in err.value.row_errors)
        assert any("line 2" in e for e in err.value.row_errors)

    def test_feature_out_of_range_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(csv_header(2)) + "\n"
            "a,independent,0,0.5,1.7,,,,,1,\n"
        )
        with pytest.raises(DataValidationError) as err:
            ingest(path)
        assert any("x_2" in e and "line 2" in e for e in err.value.row_errors)

    def test_skip_invalid_drops_bad_rows(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text(
            ",".join(csv_header(1)) + "\n"
            "a,independent,0,0.5,,,,,1,\n"
            "a,independent,1,9.5,,,,,1,\n"
            "a,independent,2,0.6,,,,,0,\n"
        )
        loaded = ingest(path, skip_invalid=True)
        assert loaded.trial_index.tolist() == [0, 2]

    def test_repeated_trial_names_both_lines(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text(
            ",".join(csv_header(1)) + "\n"
            "a,independent,0,0.5,,,,,1,\n"
            "b,independent,0,0.5,,,,,1,\n"
            "a,independent,1,0.5,,,,,0,\n"
            "a,independent,0,0.7,,,,,0,\n"
        )
        with pytest.raises(DataValidationError) as err:
            ingest(path)
        assert err.value.row_errors == [
            "line 5: subject 'a' trial_index 0 repeats line 2"]
        loaded = ingest(path, skip_invalid=True)
        assert list(zip(loaded.subject_id.tolist(), loaded.trial_index.tolist(),
                        loaded.final_decision.tolist())) == [
            ("a", 0, 1), ("b", 0, 1), ("a", 1, 0)]

    def test_crt_must_be_constant_per_subject(self, tmp_path):
        path = tmp_path / "crt.csv"
        path.write_text(
            ",".join(csv_header(1)) + "\n"
            "a,independent,0,0.5,,,,,1,2\n"
            "a,independent,1,0.5,,,,,1,3\n"
        )
        with pytest.raises(DataValidationError) as err:
            ingest(path)
        assert any("crt_score" in e for e in err.value.row_errors)

    def test_fingerprint_comment_is_ignored(self, tmp_path):
        path = tmp_path / "c.csv"
        export_csv(sample_records(), path, fingerprint="deadbeef")
        first = path.read_text().splitlines()[0]
        assert first == "# config_fingerprint=deadbeef"
        assert len(ingest(path)) == 5


def oracle_record(subject_id, treatment, trial_index, features, final_decision,
                  ai_recommendation=None, ai_confidence=None,
                  explanation_mask=None, initial_decision=None, crt_score=None):
    """The checks of the per-record type that ``Trials`` replaced, one record
    at a time: the record's fields as a dict, or the ConfigurationError of
    the first check it fails."""
    sid = subject_id
    if sid.lstrip().startswith("#") or "\n" in sid or "\r" in sid:
        raise ConfigurationError("subject_id must not start with # or break a line")
    if (sid in (".", "..") or any(c in sid for c in "/\\\0")
            or len(sid.encode("utf-8", "surrogatepass")) > 251):
        raise ConfigurationError(
            "subject_id must be a file name: no /, \\ or NUL, not . or .., "
            "and at most 251 UTF-8 bytes")
    features = np.array(features, dtype=float)
    if features.ndim != 1 or features.size == 0:
        raise ConfigurationError("record features must be a nonempty vector")
    if not all(0.0 <= v <= 1.0 for v in features.tolist()):
        raise ConfigurationError("record features must lie in [0, 1]")
    treatment = Treatment(treatment)
    if final_decision not in (0, 1):
        raise ConfigurationError("final_decision must be 0 or 1")
    if crt_score is not None and crt_score not in (0, 1, 2, 3):
        raise ConfigurationError("crt_score must be in 0..3")
    if explanation_mask is not None:
        explanation_mask = np.array(explanation_mask, dtype=int)
        if (explanation_mask.shape != features.shape
                or not all(v in (0, 1) for v in explanation_mask.tolist())):
            raise ConfigurationError("explanation_mask must be 0/1 of feature length")
    present = (ai_recommendation is not None, ai_confidence is not None,
               explanation_mask is not None, initial_decision is not None)
    required = {
        Treatment.INDEPENDENT: (False, False, False, False),
        Treatment.IMMEDIATE: (True, True, False, False),
        Treatment.DELAYED: (True, False, False, True),
        Treatment.EXPLANATION: (False, False, True, False),
    }[treatment]
    for name, has, needs in zip(("ai_rec", "ai_conf", "exp_mask", "initial_decision"),
                                present, required):
        if needs and not has:
            raise ConfigurationError(f"{treatment.value} treatment requires {name}")
        if has and not needs:
            raise ConfigurationError(
                f"{treatment.value} treatment must not carry {name}")
    if ai_recommendation is not None and ai_recommendation not in (0, 1):
        raise ConfigurationError("ai_rec must be 0 or 1")
    if ai_confidence is not None and not 0.5 <= ai_confidence <= 1.0:
        raise ConfigurationError("ai_conf must lie in [0.5, 1]")
    if initial_decision is not None and initial_decision not in (0, 1):
        raise ConfigurationError("initial_decision must be 0 or 1")
    return dict(subject_id=subject_id, treatment=treatment, trial_index=trial_index,
                features=features.tolist(), final_decision=final_decision,
                ai_recommendation=ai_recommendation, ai_confidence=ai_confidence,
                explanation_mask=(None if explanation_mask is None
                                  else explanation_mask.tolist()),
                initial_decision=initial_decision, crt_score=crt_score)


def oracle_parse_row(row, n_features, line):
    """The per-row parser that ingest used to call, one dict per row."""
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
            f"line {line}: unknown treatment {row['treatment']!r}") from None
    features = np.empty(n_features)
    for i in range(n_features):
        name = f"x_{i + 1}"
        try:
            features[i] = float(row[name])
        except (TypeError, ValueError):
            raise DataValidationError(f"line {line}: {name} is not a number") from None
        if not 0.0 <= features[i] <= 1.0:
            raise DataValidationError(f"line {line}: {name} out of [0, 1]: {row[name]}")
    try:
        kwargs = dict(
            subject_id=row["subject_id"], treatment=treatment,
            trial_index=req_int("trial_index"), features=features,
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
        return oracle_record(**kwargs)
    except (ValueError, ConfigurationError) as exc:
        raise DataValidationError(f"line {line}: {exc}") from None


def oracle_ingest(path, skip_invalid=False):
    """ingest as it was: each line read by its own csv reader into a dict."""
    with open(path, newline="") as handle:
        lines = [(i + 1, line) for i, line in enumerate(handle)
                 if line.strip() and not line.lstrip().startswith("#")]
    header = next(csv.reader([lines[0][1]]))
    n_features = len([c for c in header if c.startswith("x_")])
    assert header == csv_header(n_features)
    records, errors, first_line = [], [], {}
    for line_no, text in lines[1:]:
        values = next(csv.reader([text]))
        if len(values) != len(header):
            errors.append(f"line {line_no}: expected {len(header)} fields, "
                          f"got {len(values)}")
            continue
        try:
            record = oracle_parse_row(dict(zip(header, values)), n_features, line_no)
        except DataValidationError as exc:
            errors.append(str(exc))
            continue
        key = (record["subject_id"], record["trial_index"])
        if key in first_line:
            errors.append(f"line {line_no}: subject {key[0]!r} trial_index "
                          f"{key[1]} repeats line {first_line[key]}")
            continue
        first_line[key] = line_no
        records.append(record)
    seen_crt = {}
    for rec in records:
        if rec["subject_id"] not in seen_crt:
            seen_crt[rec["subject_id"]] = rec["crt_score"]
        elif seen_crt[rec["subject_id"]] != rec["crt_score"]:
            errors.append(f"subject {rec['subject_id']}: crt_score is not constant "
                          f"across trials")
            break
    if errors and not skip_invalid:
        raise DataValidationError(f"{path}: {len(errors)} invalid row(s)",
                                  row_errors=errors)
    return records


def field(*values):
    return st.sampled_from(values)


# each field of a 3-feature row: valid values, values a rule rejects, and
# stray quotes and separators
FIELD_VARIANTS = [
    field("s1", "s2", "#x", "a/b", "", '"s,1"', 'a"b', '"open'),
    field(*(t.value for t in Treatment), "bogus", ""),
    field("0", "1", "2", " 3", "x", ""),
    *[field("0.5", "0", "1", "1e-3", "1.5", "-0.1", "nan", "inf", "x", "",
            '"0.25"')] * 3,
    field("", "0", "1", "2", "x"),
    field("", "0.75", "0.3", "1", "x", "nan"),
    field("", "101", "10", "1x1", "111"),
    field("", "0", "1", "2"),
    field("0", "1", "", "2", "x"),
    field("", "0", "3", "4", "x"),
]
# the payload fields (ai_rec, ai_conf, exp_mask, initial_decision) of a
# valid row of each treatment
PAYLOADS = {
    Treatment.INDEPENDENT: ("", "", "", ""),
    Treatment.IMMEDIATE: ("1", "0.75", "", ""),
    Treatment.DELAYED: ("0", "", "", "1"),
    Treatment.EXPLANATION: ("", "", "101", ""),
}


@st.composite
def behavior_line(draw):
    """A valid row with up to two fields replaced by variants, a row with a
    field too few or too many, a comment, or raw text with quotes and
    line breaks."""
    kind = draw(st.sampled_from(["row"] * 6 + ["short", "long", "comment",
                                               "raw"]))
    if kind == "comment":
        return "# " + draw(st.text(alphabet="ab,", max_size=5))
    if kind == "raw":
        return draw(st.text(alphabet='ab01,."\r\n ', max_size=20))
    treatment = draw(st.sampled_from(list(Treatment)))
    values = [draw(field("s1", "s2")), treatment.value,
              str(draw(st.integers(0, 3))),
              *(draw(field("0.5", "0", "1", "0.25")) for _ in range(3)),
              *PAYLOADS[treatment], draw(field("0", "1")), draw(field("", "1", "2"))]
    for position in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[position] = draw(FIELD_VARIANTS[position])
    if kind == "short":
        values.pop(draw(st.integers(0, len(values) - 1)))
    elif kind == "long":
        values.append("0")
    return ",".join(values)


def assert_ingests_like_the_oracle(path):
    """ingest's records, messages, line numbers and --skip-invalid drops
    are those of the old per-line, per-dict loop."""
    for skip_invalid in (False, True):
        try:
            want = oracle_ingest(path, skip_invalid)
        except DataValidationError as exc:
            with pytest.raises(DataValidationError) as got:
                ingest(path, skip_invalid)
            assert str(got.value) == str(exc)
            assert got.value.row_errors == exc.row_errors
            continue
        got = ingest(path, skip_invalid)
        assert len(got) == len(want)
        for a, b in zip(rows_of(got), want):
            fields = ("subject_id", "treatment", "trial_index", "final_decision",
                      "ai_recommendation", "ai_confidence", "initial_decision",
                      "crt_score")
            assert [a[f] for f in fields] == [b[f] for f in fields]
            assert np.array_equal(a["features"], b["features"])
            assert ((a["explanation_mask"] is None)
                    == (b["explanation_mask"] is None))
            if a["explanation_mask"] is not None:
                assert np.array_equal(a["explanation_mask"], b["explanation_mask"])


def write_lines(path, lines, ending="\n", n_features=3):
    path.write_bytes(ending.join([",".join(csv_header(n_features)), *lines, ""])
                     .encode("utf-8"))
    return path


def quoted(line):
    """A line with each of its comma-separated parts quoted as one field."""
    return ",".join('"' + part.replace('"', '""') + '"' for part in line.split(","))


class TestIngestOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(behavior_line(), max_size=12),
           ending=st.sampled_from(["\n", "\r\n", "\r"]))
    def test_same_records_and_errors_as_per_row_parsing(self, tmp_path, lines,
                                                        ending):
        # ingest splits a line without quotes at its commas and converts a
        # column at a time; what it reads must be what the per-line csv
        # reader and per-dict parser read, for every line ending
        assert_ingests_like_the_oracle(
            write_lines(tmp_path / "rows.csv", lines, ending))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.tuples(behavior_line(), st.booleans()), max_size=12))
    def test_quoted_and_plain_lines_mix(self, tmp_path, lines):
        # lines whose fields are all quoted go through the csv module, the
        # others are split at their commas; rows, errors and repeats are
        # checked across both kinds
        assert_ingests_like_the_oracle(write_lines(
            tmp_path / "rows.csv", [quoted(line) if q else line for line, q in lines]))

    def test_field_over_the_csv_limit_aborts_without_quotes(self, tmp_path):
        # a field the csv module refuses aborts the read even on a line
        # without quotes
        limit = csv.field_size_limit()
        row = "s1,independent,{},{},0.5,0.5,,,,,0,1"
        path = write_lines(tmp_path / "rows.csv",
                           [row.format(0, 0.5), row.format(1, "0" * (limit + 1))])
        with pytest.raises(DataValidationError) as got:
            ingest(path)
        assert str(got.value) == (f"cannot read behavior file {path}: line 3: "
                                  f"field larger than field limit ({limit})")

    def test_line_over_the_csv_limit_of_short_fields_reads(self, tmp_path):
        # a line longer than the limit whose fields are each within it
        half = "0." + "0" * (csv.field_size_limit() // 2 + 10)
        path = write_lines(tmp_path / "rows.csv",
                           [f"s1,independent,0,{half},{half},0.5,,,,,0,1",
                            f"s1,independent,1,{half},1.5,{half},,,,,0,1"])
        assert_ingests_like_the_oracle(path)
        assert ingest(path, skip_invalid=True).features.tolist() == [[0.0, 0.0, 0.5]]

    def test_exported_file_of_2000_rows(self, tmp_path):
        # a deterministic file of every treatment, more rows than one block
        rng = np.random.default_rng(2000)
        rows = []
        for subject in range(100):
            treatment = list(Treatment)[subject % 4]
            crt = None if subject % 7 == 0 else int(rng.integers(4))
            for index in rng.permutation(20).tolist():
                payload = {
                    Treatment.INDEPENDENT: {},
                    Treatment.IMMEDIATE: dict(
                        ai_recommendation=int(rng.integers(2)),
                        ai_confidence=float(rng.uniform(0.5, 1.0))),
                    Treatment.DELAYED: dict(ai_recommendation=int(rng.integers(2)),
                                            initial_decision=int(rng.integers(2))),
                    Treatment.EXPLANATION: dict(
                        explanation_mask=rng.integers(2, size=5).tolist()),
                }[treatment]
                rows.append(dict(subject_id=f"subject {subject:03d}",
                                 treatment=treatment, trial_index=index,
                                 features=rng.random(5).tolist(),
                                 final_decision=int(rng.integers(2)),
                                 crt_score=crt, **payload))
        table = trials_of(rows)
        path = tmp_path / "behavior.csv"
        export_csv(table, path, fingerprint="0123abcd")
        got = ingest(path)
        want = oracle_ingest(path)
        assert len(got) == len(want) == 2000
        for name in ("subject_id", "treatment", "trial_index", "final_decision"):
            assert getattr(got, name).tolist() == [r[name] for r in want]
            assert np.array_equal(getattr(got, name), getattr(table, name))
        assert np.array_equal(got.features, [r["features"] for r in want])
        assert np.array_equal(got.features, table.features)
        for name in _OPTIONAL:
            assert got.optional(name) == [r[name] for r in want]
            assert np.array_equal(getattr(got, name), getattr(table, name),
                                  equal_nan=name == "ai_confidence")
        assert np.array_equal(got.present, table.present)


@st.composite
def python_rows(draw):
    """Rows of one dimension given to ``Trials`` as Python values, each
    field drawn from valid values and values a rule rejects; an optional
    field is left out of some rows."""
    n = draw(st.integers(1, 3))
    rows = []
    for index in range(draw(st.integers(1, 4))):
        row = dict(
            subject_id=draw(st.sampled_from(["s1", "s2", "#s", " # s", "s\n", "a/b",
                                             "..", "s" * 252])),
            treatment=draw(st.sampled_from(list(Treatment))), trial_index=index,
            features=draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.5,
                                                    np.nan, np.inf]),
                                   min_size=n, max_size=n)),
            final_decision=draw(st.sampled_from([0, 1, 2])))
        for name, values in (("ai_recommendation", [0, 1, 2]),
                             ("ai_confidence", [0.5, 0.75, 1.0, 0.3, np.nan]),
                             ("initial_decision", [0, 1, -1]),
                             ("crt_score", [0, 3, 4])):
            if draw(st.booleans()):
                row[name] = draw(st.sampled_from(values))
        if draw(st.booleans()):
            row["explanation_mask"] = draw(st.lists(st.sampled_from([0, 1, 2]),
                                                    min_size=n - 1, max_size=n + 1))
        rows.append(row)
    return rows


class TestRowRules:
    @settings(max_examples=100, deadline=None)
    @given(rows=python_rows())
    def test_first_error_is_the_per_record_checks_first(self, rows):
        # the column rules report the first failing row's first broken
        # check, as the per-record checks find it
        errors = []
        for row in rows:
            try:
                oracle_record(**row)
            except ConfigurationError as exc:
                errors.append(str(exc))
        if not errors:
            assert len(trials_of(rows)) == len(rows)
            return
        with pytest.raises(ConfigurationError) as got:
            trials_of(rows)
        assert str(got.value) == errors[0]


class TestGrouping:
    def test_sorted_subjects_and_trials(self):
        records = trials_of([immediate_record(sid="b", idx=1),
                             immediate_record(sid="a", idx=0),
                             immediate_record(sid="b", idx=0)])
        groups = group_by_subject(records)
        assert list(groups) == ["a", "b"]
        assert groups["b"].trial_index.tolist() == [0, 1]
