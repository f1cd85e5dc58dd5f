"""Behavior records: validation, CSV schema, round-trips."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nudgelab import BehaviorRecord, ConfigurationError, Treatment
from nudgelab.errors import DataValidationError
from nudgelab.records import csv_header, export_csv, group_by_subject, ingest


def immediate_record(sid="s1", idx=0, crt=2):
    return BehaviorRecord(
        subject_id=sid, treatment=Treatment.IMMEDIATE, trial_index=idx,
        features=[0.25, 0.5, 0.75], final_decision=1,
        ai_recommendation=1, ai_confidence=0.875, crt_score=crt,
    )


def sample_records():
    return [
        immediate_record(idx=0),
        immediate_record(idx=1),
        BehaviorRecord(subject_id="s2", treatment=Treatment.DELAYED, trial_index=0,
                       features=[0.0, 1.0, 0.3], final_decision=0,
                       ai_recommendation=0, initial_decision=1, crt_score=0),
        BehaviorRecord(subject_id="s3", treatment=Treatment.EXPLANATION,
                       trial_index=0, features=[0.1, 0.2, 0.3], final_decision=1,
                       explanation_mask=[1, 1, 0], crt_score=3),
        BehaviorRecord(subject_id="s4", treatment=Treatment.INDEPENDENT,
                       trial_index=0, features=[0.9, 0.8, 0.7], final_decision=0),
    ]


class TestRecordValidation:
    def test_payload_must_match_treatment(self):
        with pytest.raises(ConfigurationError):
            BehaviorRecord(subject_id="x", treatment=Treatment.DELAYED,
                           trial_index=0, features=[0.5], final_decision=1,
                           ai_recommendation=1)  # initial_decision missing
        with pytest.raises(ConfigurationError):
            BehaviorRecord(subject_id="x", treatment=Treatment.INDEPENDENT,
                           trial_index=0, features=[0.5], final_decision=1,
                           ai_confidence=0.7)  # stray payload

    def test_confidence_range(self):
        with pytest.raises(ConfigurationError):
            BehaviorRecord(subject_id="x", treatment=Treatment.IMMEDIATE,
                           trial_index=0, features=[0.5], final_decision=1,
                           ai_recommendation=1, ai_confidence=0.3)

    def test_subject_id_must_fit_one_csv_line(self):
        for subject_id in ("#s1", "  # s1", "s\n1", "s\r1"):
            with pytest.raises(ConfigurationError):
                BehaviorRecord(subject_id=subject_id, treatment=Treatment.INDEPENDENT,
                               trial_index=0, features=[0.5], final_decision=1)

    def test_subject_id_must_be_a_file_name(self):
        for subject_id in ("../escaped", "a/b", "a\\b", "a\0b", ".", "..",
                           "s" * 252, "\u00e9" * 126):
            with pytest.raises(ConfigurationError):
                BehaviorRecord(subject_id=subject_id, treatment=Treatment.INDEPENDENT,
                               trial_index=0, features=[0.5], final_decision=1)
        record = BehaviorRecord(subject_id="...", treatment=Treatment.INDEPENDENT,
                                trial_index=0, features=[0.5], final_decision=1)
        assert record.subject_id == "..."
        longest = BehaviorRecord(subject_id="s" * 251, treatment=Treatment.INDEPENDENT,
                                 trial_index=0, features=[0.5], final_decision=1)
        assert len(longest.subject_id) == 251

    def test_feature_range(self):
        for bad in (1.5, -0.25, np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError,
                               match=r"record features must lie in \[0, 1\]"):
                BehaviorRecord(subject_id="x", treatment=Treatment.INDEPENDENT,
                               trial_index=0, features=[0.5, bad],
                               final_decision=1)
        record = BehaviorRecord(subject_id="x", treatment=Treatment.INDEPENDENT,
                                trial_index=0, features=[0.0, 1.0],
                                final_decision=1)
        assert record.features.tolist() == [0.0, 1.0]

    def test_explanation_mask_is_zero_one_of_feature_length(self):
        for bad in ([1, 2], [-1, 0], [1], [1, 0, 1]):
            with pytest.raises(ConfigurationError,
                               match="explanation_mask must be 0/1 of feature length"):
                BehaviorRecord(subject_id="x", treatment=Treatment.EXPLANATION,
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
            records.append(BehaviorRecord(
                subject_id=subject_id, treatment=treatment, trial_index=index,
                features=draw(st.lists(unit, min_size=n, max_size=n)),
                final_decision=draw(bit), crt_score=crt, **payload))
    return records


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
        for a, b in zip(records, loaded):
            assert a.subject_id == b.subject_id
            assert a.treatment == b.treatment
            assert a.trial_index == b.trial_index
            assert np.array_equal(a.features, b.features)
            assert a.final_decision == b.final_decision
            assert a.ai_recommendation == b.ai_recommendation
            assert a.ai_confidence == b.ai_confidence
            assert a.initial_decision == b.initial_decision
            assert a.crt_score == b.crt_score
            if a.explanation_mask is None:
                assert b.explanation_mask is None
            else:
                assert np.array_equal(a.explanation_mask, b.explanation_mask)

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
        assert [r.trial_index for r in loaded] == [0, 2]

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
        assert [(r.subject_id, r.trial_index, r.final_decision) for r in loaded] == [
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


class TestGrouping:
    def test_sorted_subjects_and_trials(self):
        records = [immediate_record(sid="b", idx=1), immediate_record(sid="a", idx=0),
                   immediate_record(sid="b", idx=0)]
        groups = group_by_subject(records)
        assert list(groups) == ["a", "b"]
        assert [r.trial_index for r in groups["b"]] == [0, 1]
