import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcal.core import CalibrationRecord, ReviewRecord, RubricVector
from panelcal.records import (
    PanelRecord,
    RecordError,
    load_calibration_records,
    load_calibration_table,
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


# ------------------------------------------- the columnar pool against the per-line path


MISSING = object()


def _str_field(obj, key):
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    return value


def _score_field(obj):
    value = obj.get("score")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("field 'score' must be a number")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("field 'score' must be finite")
    return value


def _accept_field(obj):
    value = obj.get("accept")
    if not isinstance(value, bool):
        raise ValueError("field 'accept' must be a boolean")
    return value


def per_line_records(path):
    """(line, record) pairs the way a pool was read one line at a time.

    Each non-blank line goes through ``json.loads``, then its fields are
    checked in order; the first failing line raises.
    """
    out, seen = [], set()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{where}: invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise RecordError(f"{where}: each line must be a JSON object")
        try:
            record = CalibrationRecord(
                _str_field(obj, "id"), _score_field(obj), _accept_field(obj), _str_field(obj, "status")
            )
        except ValueError as exc:
            raise RecordError(f"{where}: {exc}") from exc
        if record.submission_id in seen:
            raise RecordError(f"{where}: duplicate record id {record.submission_id!r}")
        seen.add(record.submission_id)
        out.append((line_no, record))
    if not out:
        raise RecordError(f"{path}: no records found")
    return out


def record_columns(records):
    """ids, score reprs (so -0.0 differs from 0.0), accepts and statuses."""
    return (
        tuple(r.submission_id for r in records),
        tuple(repr(r.agent_score) for r in records),
        tuple(r.human_accept for r in records),
        tuple(r.status for r in records),
    )


def outcome(load, path):
    try:
        return load(path)
    except RecordError as exc:
        return str(exc)


def assert_loaders_agree(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = outcome(per_line_records, path)
        table = outcome(load_calibration_table, path)
        records = outcome(load_calibration_records, path)
    if isinstance(expected, str):
        assert table == expected
        assert records == expected
        return expected
    want = record_columns([r for _, r in expected])
    assert (
        table.ids,
        tuple(repr(float(s)) for s in table.scores),
        tuple(bool(a) for a in table.accepts),
        table.statuses,
    ) == want
    assert table.lines.tolist() == [line for line, _ in expected]
    assert record_columns(records) == want
    assert [table.record(i) for i in range(len(table))] == records
    return None


SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0.0, -0.0, 0, 2**53 + 1]),
)
# blank to str.strip, and so skipped, though not all of it is JSON whitespace
BLANKS = st.sampled_from(["", "  ", "\t", "\r", "\u00a0", " \u3000 "])


@st.composite
def pool_records(draw):
    n = draw(st.integers(1, 10))
    ids = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    return [
        {
            "id": submission_id,
            "score": draw(SCORES),
            "accept": draw(st.booleans()),
            "status": draw(st.sampled_from(["accept", "reject", "hold"])),
        }
        for submission_id in ids
    ]


@st.composite
def pool_lines(draw, records):
    """JSONL lines of ``records``, padded with JSON whitespace, blank lines between."""
    lines = []
    for obj in records:
        pad = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(pad + json.dumps(obj) + pad[::-1])
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(BLANKS))
    return lines


@given(pool_records().flatmap(pool_lines))
def test_calibration_table_matches_per_line_records(lines):
    assert assert_loaders_agree(lines) is None


FIELD_BREAKS = {
    "id": ["", 5, None, ["c"], True, MISSING],
    "score": [True, False, "7", None, 10**400, -(10**400), math.nan, math.inf, [1.0], MISSING],
    "accept": [1, 0, "true", None, MISSING],
    "status": ["", None, 3, MISSING],
}
LINE_BREAKS = ["[1, 2]", '"pool"', "3", "null", "{broken", '{"id": "x",}', "{", "\ufeff{}", "]"]
TRAILERS = [" {}", " x", ",", "]", " 1"]


@st.composite
def corrupted_pool_lines(draw):
    records = draw(pool_records())
    lines = [json.dumps(obj) for obj in records]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["field", "line", "trailing", "duplicate"]))
        obj = dict(records[i])
        if kind == "field":
            key = draw(st.sampled_from(sorted(FIELD_BREAKS)))
            value = draw(st.sampled_from(FIELD_BREAKS[key]))
            if value is MISSING:
                del obj[key]
            else:
                obj[key] = value
            lines[i] = json.dumps(obj)
        elif kind == "line":
            lines[i] = draw(st.sampled_from(LINE_BREAKS))
        elif kind == "trailing":
            lines[i] += draw(st.sampled_from(TRAILERS))
        else:
            obj["id"] = records[draw(st.integers(0, len(records) - 1))]["id"]
            lines[i] = json.dumps(obj)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANKS))
    return lines


@settings(max_examples=max(200, settings.default.max_examples))
@given(corrupted_pool_lines())
def test_calibration_table_errors_match_per_line_records(lines):
    assert_loaders_agree(lines)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("[1, 2]", "each line must be a JSON object"),
        ("{broken", "invalid JSON: Expecting property name enclosed in double quotes"),
        ('{"id": "c9", "score": 1, "accept": true, "status": "s"} {}', "invalid JSON: Extra data"),
        ('{"id": "c9", "score": ' + "1" * 400 + ', "accept": true, "status": "s"}',
         "field 'score' must be finite"),
        ('{"id": "c9", "score": "1", "accept": true, "status": "s"}', "field 'score' must be a number"),
        ('{"id": "", "score": 1, "accept": true, "status": "s"}',
         "field 'id' must be a non-empty string"),
        ('{"id": "c9", "score": 1, "accept": true, "status": ""}',
         "field 'status' must be a non-empty string"),
        ('{"id": "c1", "score": 1, "accept": true, "status": "s"}', "duplicate record id 'c1'"),
    ],
    ids=["non-object", "invalid-json", "trailing-data", "huge-int", "string-score", "empty-id",
         "empty-status", "duplicate-id"],
)
def test_calibration_table_names_the_first_bad_line(tmp_path, line, message):
    good = '{"id": "c1", "score": 2.5, "accept": false, "status": "s"}'
    later = '{"id": "c8", "score": true, "accept": false, "status": "s"}'
    path = write(tmp_path, "pool.jsonl", f"{good}\n\n{line}\n{later}\n")
    with pytest.raises(RecordError) as got:
        load_calibration_table(path)
    assert str(got.value) == f"{path}:3: {message}"
