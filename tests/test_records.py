import pytest

from panelcal.core import CalibrationRecord, ReviewRecord, RubricVector
from panelcal.records import (
    PanelRecord,
    RecordError,
    load_calibration_records,
    load_config,
    load_panel_records,
)

PANEL_LINES = """\
{"id": "p1", "label": true, "reviews": [{"reviewer": "m1", "rubric": [4, 6], "flag": false, "feedback": "fine"}, {"reviewer": "m2", "rubric": [8, 2], "flag": true}]}

{"id": "p2", "reviews": [{"reviewer": "m1", "overall": 7.5, "flag": false}]}
{"id": "p3", "label": null, "reviews": []}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_panel_records(tmp_path):
    records = load_panel_records(write(tmp_path, "panels.jsonl", PANEL_LINES))
    assert [r.submission_id for r in records] == ["p1", "p2", "p3"]
    assert records[0].fabrication_label is True
    assert records[0].reviews[0].rubric.values == (4.0, 6.0)
    assert records[0].reviews[1].integrity_flag
    assert records[0].reviews[1].feedback == ""
    assert records[1].fabrication_label is None
    assert records[1].reviews[0].rubric.values == (7.5,)
    assert records[2].reviews == ()
    panel = records[0].to_panel()
    assert panel.any_flag


def test_panel_round_trip_lossless(tmp_path):
    records = load_panel_records(write(tmp_path, "panels.jsonl", PANEL_LINES))
    assert records == [
        PanelRecord(
            "p1",
            (
                ReviewRecord("m1", RubricVector((4.0, 6.0)), False, "fine"),
                ReviewRecord("m2", RubricVector((8.0, 2.0)), True, ""),
            ),
            True,
        ),
        PanelRecord("p2", (ReviewRecord("m1", RubricVector((7.5,)), False, ""),), None),
        PanelRecord("p3", (), None),
    ]


def test_panel_errors_carry_line_numbers(tmp_path):
    bad_json = write(tmp_path, "bad.jsonl", '{"id": "p1", "reviews": []}\n{broken\n')
    with pytest.raises(RecordError, match=r"bad\.jsonl:2: invalid JSON"):
        load_panel_records(bad_json)

    missing_flag = write(
        tmp_path,
        "flag.jsonl",
        '{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [4]}]}\n',
    )
    with pytest.raises(RecordError, match=r"flag\.jsonl:1: reviews\[0\]: field 'flag'"):
        load_panel_records(missing_flag)

    dup = write(
        tmp_path,
        "dup.jsonl",
        '{"id": "p1", "reviews": []}\n{"id": "p1", "reviews": []}\n',
    )
    with pytest.raises(RecordError, match=r"dup\.jsonl:2: duplicate panel id 'p1'"):
        load_panel_records(dup)

    with pytest.raises(RecordError, match="no records found"):
        load_panel_records(write(tmp_path, "empty.jsonl", "\n\n"))


def test_panel_review_requires_rubric_or_overall(tmp_path):
    path = write(
        tmp_path,
        "neither.jsonl",
        '{"id": "p1", "reviews": [{"reviewer": "m1", "flag": false}]}\n',
    )
    with pytest.raises(RecordError, match="'rubric' array or an 'overall' number"):
        load_panel_records(path)
    # rubric wins when both appear
    both = write(
        tmp_path,
        "both.jsonl",
        '{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [4, 6], "overall": 9, "flag": false}]}\n',
    )
    records = load_panel_records(both)
    assert records[0].reviews[0].rubric.values == (4.0, 6.0)


def test_panel_rejects_non_numeric_rubric(tmp_path):
    path = write(
        tmp_path,
        "types.jsonl",
        '{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [4, true], "flag": false}]}\n',
    )
    with pytest.raises(RecordError, match=r"rubric\[1\]"):
        load_panel_records(path)


def test_calibration_round_trip(tmp_path):
    path = write(
        tmp_path,
        "cal.jsonl",
        '{"id": "c1", "score": 6.5, "accept": true, "status": "accept"}\n'
        '\n'
        '{"id": "c2", "score": 2, "accept": false, "status": "reject"}\n',
    )
    assert load_calibration_records(path) == [
        CalibrationRecord("c1", 6.5, True, "accept"),
        CalibrationRecord("c2", 2.0, False, "reject"),
    ]


def test_calibration_errors(tmp_path):
    bad_score = write(tmp_path, "cal.jsonl", '{"id": "c1", "score": "high", "accept": true, "status": "accept"}\n')
    with pytest.raises(RecordError, match=r"cal\.jsonl:1: field 'score' must be a number"):
        load_calibration_records(bad_score)
    bool_score = write(tmp_path, "cal2.jsonl", '{"id": "c1", "score": true, "accept": true, "status": "accept"}\n')
    with pytest.raises(RecordError, match="field 'score' must be a number"):
        load_calibration_records(bool_score)
    dup = write(
        tmp_path,
        "cal3.jsonl",
        '{"id": "c1", "score": 1, "accept": true, "status": "a"}\n'
        '{"id": "c1", "score": 2, "accept": true, "status": "a"}\n',
    )
    with pytest.raises(RecordError, match="duplicate record id"):
        load_calibration_records(dup)


def test_load_config(tmp_path):
    path = write(tmp_path, "config.json", '{"target_rate": 0.3}')
    assert load_config(path) == {"target_rate": 0.3}
    with pytest.raises(RecordError, match="top level must be a JSON object"):
        load_config(write(tmp_path, "list.json", "[1, 2]"))
    with pytest.raises(RecordError, match="invalid JSON"):
        load_config(write(tmp_path, "broken.json", "{"))
