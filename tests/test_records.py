import dataclasses
import gc
import json
import math
import os
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from panelcal import records as records_module
from panelcal.core import CalibrationRecord, ReviewPanel, ReviewRecord, RubricVector
from panelcal.records import (
    PanelRecord,
    PanelTable,
    RecordError,
    load_calibration_records,
    load_calibration_table,
    load_config,
    load_panel_records,
    load_panel_table,
)

PANEL_LINES = """\
{"id": "p1", "label": true, "reviews": [{"reviewer": "m1", "rubric": [4, 6], "flag": false, "feedback": "fine"}, {"reviewer": "m2", "rubric": [8, 2], "flag": true}]}

{"id": "p2", "reviews": [{"reviewer": "m1", "overall": 7.5, "flag": false}]}
{"id": "p3", "label": null, "reviews": []}
"""


# a JSON value nested deeper than the decoder's recursion limit
DEEP = "[" * 100_000 + "]" * 100_000


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
    panel = ReviewPanel(records[0].submission_id, records[0].reviews, records[0].fabrication_label)
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
    deep = write(tmp_path, "deep.json", '{"target_rate": ' + DEEP + "}")
    with pytest.raises(RecordError) as got:
        load_config(deep)
    assert str(got.value) == f"{deep}: invalid JSON: nested too deeply"


# ------------------------------------------- the columnar pool against the per-line path


MISSING = object()


def _str_field(obj, key):
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    if any(0xD800 <= ord(char) <= 0xDFFF for char in value):
        raise ValueError(f"field {key!r} must not contain a lone surrogate")
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
        except RecursionError:
            raise RecordError(f"{where}: invalid JSON: nested too deeply") from None
        except ValueError:  # an integer past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise RecordError(f"{where}: invalid JSON: integer has more than {limit} digits") from None
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
    return assert_pool_loaders_agree("\n".join(lines) + "\n")


def assert_pool_loaders_agree(text):
    """Load ``text`` with the package and per line; the first error or every record agrees."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pool.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = outcome(per_line_records, path)
        table = outcome(load_calibration_table, path)
        records = outcome(load_calibration_records, path)
    if isinstance(expected, str):
        assert table == expected
        assert records == expected
        return expected
    want = record_columns([r for _, r in expected])
    assert (
        tuple(table.ids),
        tuple(repr(float(s)) for s in table.scores),
        tuple(bool(a) for a in table.accepts),
        tuple(table.statuses),
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


# good lines in front of the drawn ones, so that the drawn lines start at different places
FILLER = st.sampled_from([0, 0, 63, 64, 65, 130])


def pool_filler(n):
    """``n`` good pool lines, their ids longer than any drawn id."""
    return [json.dumps({"id": f"fill{i}", "score": i / 8, "accept": i % 3 == 0,
                        "status": "accept" if i % 3 == 0 else "reject"}) for i in range(n)]


@given(FILLER, pool_records().flatmap(pool_lines))
def test_calibration_table_matches_per_line_records(filler, lines):
    assert assert_loaders_agree(pool_filler(filler) + lines) is None


FIELD_BREAKS = {
    "id": ["", 5, None, ["c"], True, MISSING, "c\ud800"],
    "score": [True, False, "7", None, 10**400, -(10**400), math.nan, math.inf, [1.0], MISSING],
    "accept": [1, 0, "true", None, MISSING],
    "status": ["", None, 3, MISSING, "\udfff"],
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
@given(FILLER, corrupted_pool_lines())
def test_calibration_table_errors_match_per_line_records(filler, lines):
    assert_loaders_agree(pool_filler(filler) + lines)


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
        ('{"id": "c9", "score": ' + DEEP + ', "accept": true, "status": "s"}',
         "invalid JSON: nested too deeply"),
    ],
    ids=["non-object", "invalid-json", "trailing-data", "huge-int", "string-score", "empty-id",
         "empty-status", "duplicate-id", "too-deep"],
)
def test_calibration_table_names_the_first_bad_line(tmp_path, line, message):
    good = '{"id": "c1", "score": 2.5, "accept": false, "status": "s"}'
    later = '{"id": "c8", "score": true, "accept": false, "status": "s"}'
    path = write(tmp_path, "pool.jsonl", f"{good}\n\n{line}\n{later}\n")
    with pytest.raises(RecordError) as got:
        load_calibration_table(path)
    assert str(got.value) == f"{path}:3: {message}"


@settings(max_examples=max(100, settings.default.max_examples))
@given(pool_records().filter(lambda records: len(records) >= 2), st.data())
def test_calibration_table_bad_field_wins_over_a_later_bad_line(records, data):
    # a bad field, then a non-object or invalid line: the pass over the file stops at the
    # later line, and the line rules over the columns taken before it must still name the
    # earlier one
    lines = [json.dumps(obj) for obj in records]
    i = data.draw(st.integers(0, len(lines) - 2))
    key = data.draw(st.sampled_from(sorted(FIELD_BREAKS)))
    value = data.draw(st.sampled_from(FIELD_BREAKS[key]))
    obj = {k: v for k, v in records[i].items() if k != key}
    if value is not MISSING:
        obj[key] = value
    lines[i] = json.dumps(obj)
    lines[data.draw(st.integers(i + 1, len(lines) - 1))] = data.draw(st.sampled_from(LINE_BREAKS))
    message = assert_loaders_agree(lines)
    assert message is not None and f":{i + 1}: " in message


def stack_breaks(draw, obj, breaks, count):
    """``obj`` with ``count`` of its fields broken, each set to a value of ``breaks`` or removed."""
    for key in draw(st.lists(st.sampled_from(sorted(breaks)), min_size=count, max_size=count, unique=True)):
        value = draw(st.sampled_from(breaks[key]))
        obj.pop(key, None)
        if value is not MISSING:
            obj[key] = value
    return obj


def break_lines(draw, count):
    """(a, b): line ``a`` of ``count`` takes value breaks and the later line ``b`` a structural one.

    ``a`` lies among the lines from 64 up to ``b``, or among the first 64.
    """
    b = draw(st.integers(65, count - 1))
    a = draw(st.integers(64, b - 1) if draw(st.booleans()) else st.integers(0, 63))
    return a, b


@st.composite
def stacked_pool_lines(draw):
    """130 pool lines: 2-3 field breaks on one line, a status that is not a string on a later one."""
    lines = pool_filler(130)
    a, b = break_lines(draw, len(lines))
    lines[a] = json.dumps(stack_breaks(draw, json.loads(lines[a]), FIELD_BREAKS, draw(st.integers(2, 3))))
    lines[b] = json.dumps({**json.loads(lines[b]), "status": 3})
    return lines


@settings(max_examples=max(200, settings.default.max_examples))
@given(stacked_pool_lines())
def test_calibration_table_orders_the_rules_of_one_line(lines):
    assert assert_loaders_agree(lines) is not None


@pytest.mark.parametrize(
    "load", [load_calibration_table, load_panel_table], ids=["pool", "panel"]
)
def test_field_error_wins_over_a_later_too_deep_line(tmp_path, load):
    bad = {load_calibration_table: '{"id": "c1", "score": "1", "accept": true, "status": "s"}',
           load_panel_table: '{"id": "p1", "label": "yes", "reviews": []}'}[load]
    message = {load_calibration_table: "field 'score' must be a number",
               load_panel_table: "field 'label' must be a boolean or null"}[load]
    path = write(tmp_path, "input.jsonl", f"{bad}\n{DEEP}\n")
    with pytest.raises(RecordError) as got:
        load(path)
    assert str(got.value) == f"{path}:1: {message}"


@pytest.mark.parametrize(
    ("load", "data"),
    [
        (load_calibration_table,
         b'{"id": "c1", "score": 2.5, "accept": false, "status": "s\xc3\xa9"}\n\n'
         b'{"id": "c9", "score": 1, "accept": true, "status": "\xff"}\n'),
        (load_panel_table,
         b'{"id": "p1", "reviews": []}\r\n\r\n'
         b'{"id": "p2", "reviews": [{"reviewer": "m1", "overall": 5, "flag": false, '
         b'"feedback": "\xff"}]}\n'),
        (load_config, b'{\n  "target_rate": 0.3,\n  "seed": "\xff"\n}\n'),
        (load_config, b'{"tau_rate": 7.0,\n"tau_05": 4.0,\n"\xff": 1}\n'),
    ],
    ids=["pool", "panel", "config", "thresholds"],
)
def test_non_utf8_byte_names_its_line(tmp_path, load, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(RecordError) as got:
        load(path)
    assert str(got.value) == f"{path}:3: not valid UTF-8"


# every line terminator of str.splitlines, \r\n as one piece and as two, and line content
LINE_PIECES = st.sampled_from([
    "\r", "\n", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "a", "{}", " ", "\t", "\u00a0",
])


@settings(max_examples=max(200, settings.default.max_examples))
@given(st.lists(LINE_PIECES, max_size=40).map("".join), st.integers(1, 12))
@example("ab\r\ncd", 3)  # the third character is the \r of a \r\n
@example("\n\n \n", 1)
def test_pieces_are_splitlines_a_piece_at_a_time(text, chunk):
    pieces = list(records_module._pieces(text, chunk))
    numbered = [(first + k, line) for first, lines in pieces for k, line in enumerate(lines)]
    assert numbered == list(enumerate(text.splitlines(), 1))
    assert all(lines for _, lines in pieces)


def test_bad_line_after_the_first_piece_names_its_line(tmp_path):
    lines = pool_filler(3000)  # about 215 KiB with CRLF: four pieces
    lines[2500] = '{"id": "c1", "score": "1", "accept": true, "status": "s"}'
    path = write(tmp_path, "pool.jsonl", "\r\n".join(lines) + "\r\n")
    assert path.stat().st_size > 2 * records_module._CHUNK
    with pytest.raises(RecordError) as got:
        load_calibration_table(path)
    assert str(got.value) == f"{path}:2501: field 'score' must be a number"


def test_pool_load_holds_under_four_times_the_file(tmp_path):
    # the benchmark pool's line shape: the load keeps no list of every line and one string per status
    path = write(tmp_path, "pool.jsonl", "".join(
        json.dumps({"id": f"c{i:06d}", "score": round(1 + (i * 7919 % 9000) / 1000, 3),
                    "accept": i % 3 == 0, "status": "accept" if i % 3 == 0 else "reject"}) + "\n"
        for i in range(20_000)
    ))
    tracemalloc.start()
    try:
        table = load_calibration_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak <= 4 * os.path.getsize(path)
    assert len(set(map(id, table.statuses))) == len(set(table.statuses)) == 2


# ------------------------------------------- the columnar panel file against the per-line path


def panel_outcome(load, path):
    try:
        return load(path)
    except RecordError as exc:
        return str(exc)


def assert_panel_loaders_agree(text):
    """Load ``text`` with the package and the reference; the first error or every column agrees."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panels.jsonl"
        path.write_text(text, encoding="utf-8")
        expected = panel_outcome(reference.load_panel_table, path)
        table = panel_outcome(load_panel_table, path)
    if isinstance(expected, str):
        assert table == expected
        return expected
    assert not isinstance(table, str), table
    for field in dataclasses.fields(PanelTable):
        got, want = getattr(table, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            # the bytes, so that -0.0 differs from 0.0 and NaN equals NaN
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), field.name
        else:
            assert tuple(got) == tuple(want), field.name
    return None


# rubric numbers, with integers beyond the 53 bits a float keeps
RUBRIC_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
    st.sampled_from([0.0, -0.0, 0, 2**53 + 1]),
)
# feedback with the line breaks of str.splitlines that JSON does not escape
FEEDBACK = st.text(alphabet=st.sampled_from("ab \u2028\u0085\u00e9\"\\\x0c"), max_size=4)
# blank to str.strip, and so skipped; "\x0c" also ends a line for str.splitlines
PANEL_BLANKS = st.sampled_from(["", " ", "   ", "\t", "\x0c", "\u00a0", " \u3000 "])


# panel ids: a line break in one is a break of its line
ONE_LINE_NAMES = st.text(min_size=1, max_size=3).filter(lambda name: name.splitlines() == [name])


@st.composite
def panel_review(draw):
    review = {"reviewer": draw(st.sampled_from(["r1", "r2", "r10", "Z", "\u00e9"]))}
    if draw(st.booleans()):
        review["rubric"] = draw(st.lists(RUBRIC_NUMBERS, min_size=1, max_size=4))
    else:
        review["overall"] = draw(RUBRIC_NUMBERS)
    review["flag"] = draw(st.booleans())
    if draw(st.booleans()):
        review["feedback"] = draw(FEEDBACK)
    return review


@st.composite
def panel_objects(draw):
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(ONE_LINE_NAMES, min_size=n, max_size=n, unique=True))
    panels = []
    for submission_id in ids:
        panel = {"id": submission_id}
        label = draw(st.sampled_from([True, False, None, MISSING]))
        if label is not MISSING:
            panel["label"] = label
        panel["reviews"] = draw(st.lists(panel_review(), max_size=3))  # [] is a prior-only panel
        panels.append(panel)
    return panels


@st.composite
def panel_text(draw, panels, ensure_ascii=True):
    """JSONL of ``panels``, padded with JSON whitespace, blank lines between."""
    lines = []
    for obj in panels:
        pad = draw(st.sampled_from(["", " ", "\t ", "\r"]))
        lines.append(pad + json.dumps(obj, ensure_ascii=ensure_ascii) + pad[::-1])
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(PANEL_BLANKS))
    return "\n".join(lines) + "\n"


def filler_lines(n):
    """``n`` good panel lines, their ids longer than any drawn id."""
    return "".join(
        json.dumps({"id": f"fill{i}", "label": i % 3 == 0,
                    "reviews": [{"reviewer": f"f{i % 4}", "rubric": [i, 1.5], "flag": i % 5 == 0}]})
        + "\n"
        for i in range(n)
    )


@given(FILLER, panel_objects().flatmap(panel_text))
def test_panel_table_matches_per_line_loader(filler, text):
    assert assert_panel_loaders_agree(filler_lines(filler) + text) is None


PANEL_FIELD_BREAKS = {
    "id": ["", 5, None, ["p"], True, MISSING],
    "label": ["yes", 1, 0, [True]],
    "reviews": [None, {}, "r", 3, MISSING],
}
REVIEW_FIELD_BREAKS = {
    "reviewer": ["", 3, None, ["r1"], MISSING],
    "rubric": [[], "7", None, {}, [True], [1, "2"], [1, None], [10**400], [math.nan], [2.0, math.inf],
               [-math.inf]],
    "overall": [True, "7", None, [7], 10**400, math.nan, math.inf],
    "flag": [1, None, "false", MISSING],
    "feedback": [None, 3, ["x"]],
}
PANEL_LINE_BREAKS = ["[1, 2]", '"panel"', "3", "null", "{broken", '{"id": "x",}', "{", ":", "]",
                     "\ufeff{}", '\ufeff{"id": "b", "reviews": []}']
# (kind, key, value): one break of one line
PANEL_BREAKS = [
    *(("panel", key, value) for key, values in PANEL_FIELD_BREAKS.items() for value in values),
    *(("review", key, value) for key, values in REVIEW_FIELD_BREAKS.items() for value in values),
    *(("review", None, value) for value in [5, "r", None, [1], True]),  # not an object
    ("review", "neither", None),  # neither a rubric nor an overall
    *(("line", None, line) for line in PANEL_LINE_BREAKS),
    *(("trailing", None, trailer) for trailer in TRAILERS),
    ("unescaped", None, "\u2028"), ("unescaped", None, "\u0085"),  # str.splitlines ends a line there
    ("duplicate", None, None), ("split", None, None), ("merge", None, None),
    # names with a line break, which a written row would split in two
    *(("panel", "id", name) for name in ["a\rb", "\n", "p\u2028", "\x1c"]),
    *(("review", "reviewer", name) for name in ["m\r1", "m\r\n", "\x85"]),
    # names with a lone surrogate, which no output can encode; json.dumps writes it as an escape
    *(("panel", "id", name) for name in ["a\ud800", "\udfff"]),
    ("review", "reviewer", "m\udc00"),
]


def break_line(panels, i, kind, key, value, other=0, cut=1):
    """Panel ``i`` as a JSON line with one break; ``other`` is the panel a duplicate id or a
    merged line comes from, and ``cut`` where a split line ends."""
    text = json.dumps(panels[i])
    if kind == "line":
        return value
    if kind == "trailing":
        return text + value
    if kind == "split":  # one object over two lines
        cut = min(cut, len(text) - 1)
        return text[:cut] + "\n" + text[cut:]
    if kind == "merge":  # two objects on one line
        return text + " " + json.dumps(panels[other])
    obj = json.loads(text)
    if kind == "duplicate":
        obj["id"] = panels[other]["id"]
    elif kind == "panel":
        obj[key] = value
        if value is MISSING:
            del obj[key]
    else:  # a break of the last review, or its feedback
        if not obj["reviews"]:
            obj["reviews"].append({"reviewer": "r1", "overall": 6, "flag": False})
        review = obj["reviews"][-1]
        if kind == "unescaped":
            review["feedback"] = f"a{value}b"
        elif key is None:
            obj["reviews"][-1] = value
        elif key == "neither":
            review.pop("rubric", None)
            review.pop("overall", None)
        else:
            review[key] = value
            if value is MISSING:
                del review[key]
    # NaN and Infinity are written as their literals
    return json.dumps(obj, ensure_ascii=kind != "unescaped")


@st.composite
def corrupted_panel_text(draw):
    panels = draw(panel_objects())
    lines = [json.dumps(obj) for obj in panels]
    for _ in range(draw(st.integers(1, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        kind, key, value = draw(st.sampled_from(PANEL_BREAKS))
        other = draw(st.integers(0, len(lines) - 1))
        lines[i] = break_line(panels, i, kind, key, value, other, draw(st.integers(1, 200)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(PANEL_BLANKS))
    return "\n".join(lines) + "\n"


@settings(max_examples=max(200, settings.default.max_examples))
@given(FILLER, corrupted_panel_text())
def test_panel_table_errors_match_per_line_loader(filler, text):
    assert_panel_loaders_agree(filler_lines(filler) + text)


@pytest.mark.parametrize(("kind", "key", "value"), PANEL_BREAKS)
def test_panel_table_agrees_on_each_break_in_a_later_block(kind, key, value):
    # line 101 of 150 is broken: alone, and with a bad line after it
    panels = [{"id": f"p{i}", "label": i % 2 == 0,
               "reviews": [{"reviewer": "r1", "rubric": [i, 2.5], "flag": False},
                           {"reviewer": "r2", "overall": 6, "flag": True, "feedback": "ok"}]}
              for i in range(150)]
    lines = [json.dumps(obj) for obj in panels]
    lines[100] = break_line(panels, 100, kind, key, value, other=3, cut=25)
    text = "\n".join(lines) + "\n"
    assert_panel_loaders_agree(text)
    assert assert_panel_loaders_agree(text + '{"id": "p200", "label": "no", "reviews": []}\n')


@pytest.mark.parametrize(
    ("line", "message"),
    [
        (":", "invalid JSON: Expecting value"),
        ('{"id": "p9", "reviews": [3]}', "reviews[0]: each review must be a JSON object"),
        ('{"id": "p9", "reviews": [{"reviewer": "r1", "overall": NaN, "flag": true}]}',
         "reviews[0]: field 'overall' must be finite"),
        ('{"id": "p1", "reviews": []}', "duplicate panel id 'p1'"),
        (DEEP, "invalid JSON: nested too deeply"),
    ],
    ids=["scanner-stop", "review-not-object", "nan-overall", "duplicate-id", "too-deep"],
)
def test_panel_table_names_a_bad_line_in_a_later_block(tmp_path, line, message):
    good = [json.dumps({"id": f"p{i}", "reviews": [{"reviewer": "r1", "rubric": [i, 2], "flag": False}]})
            for i in range(1, 150)]
    later = '{"id": "p200", "label": "no", "reviews": []}'  # a bad line after the first
    text = "\n".join([*good[:100], line, *good[100:], later]) + "\n"
    path = write(tmp_path, "panels.jsonl", text)
    with pytest.raises(RecordError) as got:
        load_panel_table(path)
    assert str(got.value) == f"{path}:101: {message}"
    assert assert_panel_loaders_agree(text).endswith(f":101: {message}")


# a review that is not an object, or that has neither a rubric nor an overall, beside its field breaks
REVIEW_BREAKS = {**REVIEW_FIELD_BREAKS, "object": [5, "r", None, [1], True], "neither": [None]}
# breaks that send a piece's lines down the entry-by-entry path
STRUCTURAL_BREAKS = [("reviews", "r"), ("review", 5), ("rubric", "7"), ("reviewer", 3)]


def break_review(draw, review):
    """``review`` with one break of REVIEW_BREAKS."""
    key = draw(st.sampled_from(sorted(REVIEW_BREAKS)))
    if key == "object":
        return draw(st.sampled_from(REVIEW_BREAKS[key]))
    if key == "neither":
        return {k: v for k, v in review.items() if k not in ("rubric", "overall")}
    return stack_breaks(draw, review, {key: REVIEW_FIELD_BREAKS[key]}, 1)


@st.composite
def stacked_panel_text(draw):
    """130 panel lines: one line with both reviews broken and perhaps a third break, of a panel
    field or a review, and a structural break on a later line."""
    panels = [{"id": f"p{i}", "label": i % 2 == 0,
               "reviews": [{"reviewer": "r1", "rubric": [i, 2.5], "flag": False},
                           {"reviewer": "r2", "overall": 6, "flag": True, "feedback": "ok"}]}
              for i in range(130)]
    a, b = break_lines(draw, len(panels))
    reviews = panels[a]["reviews"]
    third = draw(st.sampled_from([None, "panel", 0, 1]))
    for k in range(2):
        reviews[k] = break_review(draw, reviews[k])
        if third == k and isinstance(reviews[k], dict):
            reviews[k] = break_review(draw, reviews[k])
    if third == "panel":
        stack_breaks(draw, panels[a], PANEL_FIELD_BREAKS, 1)
    key, value = draw(st.sampled_from(STRUCTURAL_BREAKS))
    k = draw(st.integers(0, 1))
    if key == "reviews":
        panels[b]["reviews"] = value
    elif key == "review":
        panels[b]["reviews"][k] = value
    else:
        panels[b]["reviews"][k][key] = value
    return "".join(json.dumps(panel) + "\n" for panel in panels)


@settings(max_examples=max(200, settings.default.max_examples))
@given(stacked_panel_text())
def test_panel_table_orders_the_rules_of_one_line(text):
    assert assert_panel_loaders_agree(text) is not None


@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad-last-line"])
@pytest.mark.parametrize("load", [load_panel_table, load_calibration_table], ids=["panel", "pool"])
def test_a_file_is_read_once(tmp_path, monkeypatch, load, bad):
    read = []
    read_bytes = records_module._read_bytes
    monkeypatch.setattr(records_module, "_read_bytes", lambda path: read.append(path) or read_bytes(path))
    if load is load_panel_table:
        text = filler_lines(100) + ('{"id": "p200", "label": "no", "reviews": []}\n' if bad else "")
    else:
        text = "".join(line + "\n" for line in pool_filler(100))
        text += '{"id": "c200", "score": "1", "accept": true, "status": "s"}\n' if bad else ""
    path = write(tmp_path, "input.jsonl", text)
    if bad:
        with pytest.raises(RecordError, match=":101: "):
            load(path)
    else:
        assert len(load(path)) == 100
    assert read == [path]


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('{"id": "a\\rb", "label": "yes", "reviews": 3}', "field 'id' must not contain a line break"),
        ('{"id": 5, "label": true, "reviews": [{"reviewer": "m\\r1"}]}', "field 'id' must be a non-empty string"),
        ('{"id": "p3", "label": "yes", "reviews": [{"reviewer": "m\\r1"}]}',
         "field 'label' must be a boolean or null"),
        ('{"id": "p3", "reviews": [{"reviewer": "m\\u20281", "rubric": "7", "flag": 1}]}',
         "reviews[0]: field 'reviewer' must not contain a line break"),
        ('{"id": "p3", "reviews": [{"reviewer": "m1", "overall": 5, "flag": 1}, '
         '{"reviewer": "m\\r\\n", "overall": 5, "flag": false}]}', "reviews[0]: field 'flag' must be a boolean"),
    ],
    ids=["id-before-label", "not-a-string-first", "label-before-reviewer", "reviewer-before-rubric",
         "earlier-review-first"],
)
def test_a_name_with_a_line_break_breaks_its_line(line, message):
    text = filler_lines(2) + line + "\n" + '{"id": "p9", "label": "no", "reviews": []}\n'
    assert assert_panel_loaders_agree(text).endswith(f":3: {message}")


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('{"id": "a\\ud800", "label": "yes", "reviews": []}', "field 'id' must not contain a lone surrogate"),
        ('{"id": "p3", "reviews": [{"reviewer": "m\\udfff", "rubric": "7"}]}',
         "reviews[0]: field 'reviewer' must not contain a lone surrogate"),
        ('{"id": "p3", "reviews": [{"reviewer": "\\ud800\\u2028"}]}',
         "reviews[0]: field 'reviewer' must not contain a line break"),
    ],
    ids=["id-before-label", "reviewer-before-rubric", "line-break-first"],
)
def test_panel_loader_refuses_a_lone_surrogate(tmp_path, line, message):
    # no output could encode it as UTF-8, so the name's own line is the error, not a failed write
    path = write(tmp_path, "panels.jsonl", filler_lines(2) + line + "\n")
    with pytest.raises(RecordError) as got:
        load_panel_table(path)
    assert str(got.value) == f"{path}:3: {message}"
    assert assert_panel_loaders_agree(filler_lines(2) + line + "\n").endswith(f":3: {message}")
    # an escaped surrogate pair is one character, which encodes
    pair = write(tmp_path, "pair.jsonl", '{"id": "a\\ud83d\\ude00", "reviews": []}\n')
    assert tuple(load_panel_table(pair).ids) == ("a\U0001f600",)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('{"id": "c\\udc00", "score": "7", "accept": true, "status": "s"}', "field 'id' must not contain a lone surrogate"),
        ('{"id": "c9", "score": 7, "accept": true, "status": "s\\ud800"}',
         "field 'status' must not contain a lone surrogate"),
    ],
    ids=["id-before-score", "status"],
)
def test_pool_loader_refuses_a_lone_surrogate(tmp_path, line, message):
    path = write(tmp_path, "pool.jsonl", "".join(line + "\n" for line in [*pool_filler(2), line]))
    with pytest.raises(RecordError) as got:
        load_calibration_table(path)
    assert str(got.value) == f"{path}:3: {message}"


# ------------------------------------------- the piece decoder against per-line decoding


def test_a_load_runs_no_gc_collection(tmp_path):
    # each piece's objects are freed before the next piece is decoded, so the containers
    # alive at once stay below the threshold of a first-generation collection
    panels = write(tmp_path, "panels.jsonl", "".join(
        json.dumps({"id": f"p{i}", "label": i % 5 == 0,
                    "reviews": [{"reviewer": f"r{(i + k) % 5}", "rubric": [5.25, 6.5, 7.75, 4.0],
                                 "flag": (i + k) % 10 == 0} for k in range(4)]}) + "\n"
        for i in range(5000)
    ))
    pool = write(tmp_path, "pool.jsonl", "".join(line + "\n" for line in pool_filler(5000)))
    assert gc.isenabled()
    for load, path in ((load_panel_table, panels), (load_calibration_table, pool)):
        gc.collect()
        before = [generation["collections"] for generation in gc.get_stats()]
        assert len(load(path)) == 5000
        assert [generation["collections"] for generation in gc.get_stats()] == before


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300  # from 3.10.7 on; 0: no limit


def with_field(line, value):
    """``line``, a JSON object, with one more field ``"x"`` whose JSON text is ``value``."""
    return line[:-1] + ', "x": ' + value + "}"


# (name, lines): a line of the file turned into lines that a join into one array can misread
JOIN_BREAKS = [
    ("good", lambda line, other: [line]),
    ("padded", lambda line, other: [" \t" + line + "\r "]),
    ("two-objects", lambda line, other: [line + "," + other]),
    ("glued", lambda line, other: [line + other]),
    ("array-over-two-lines", lambda line, other: [with_field(line, "[1")[:-1], "2]}"]),
    ("string-over-two-lines", lambda line, other: [with_field(line, '"a')[:-1], 'b"}']),
    ("object-then-comma", lambda line, other: [line + ",", other]),
    ("closes-the-array", lambda line, other: [line + "],[" + other]),
    ("array-of-the-line", lambda line, other: ["[" + line + "]"]),
    ("null", lambda line, other: ["null"]),
    # a NaN of the line's own as a separator, and a separator swallowed by the next line
    ("nan-separator-then-split", lambda line, other: [line + ",NaN," + with_field(other, "[1")[:-1], "2]}"]),
    # a swallowed separator, and an object where the next separator's NaN would be
    ("split-then-two-objects", lambda line, other: [with_field(line, "[1")[:-1], "2]}," + other + ', {"y": 1}']),
    ("nan", lambda line, other: [with_field(line, "NaN")]),
    ("infinity", lambda line, other: [with_field(line, "[Infinity, -Infinity, null]")]),
    ("nan-in-a-string", lambda line, other: [with_field(line, '",NaN,"')]),
    ("unescaped-separator", lambda line, other: [with_field(line, '"a\u2028b"')]),
    ("deep", lambda line, other: [with_field(line, "[" * 50 + "]" * 50)]),
    ("too-deep", lambda line, other: [with_field(line, DEEP)]),
    ("digit-limit", lambda line, other: [with_field(line, "9" * DIGIT_LIMIT)]),
    ("past-the-digit-limit", lambda line, other: [with_field(line, "9" * (DIGIT_LIMIT + 1))]),
    ("blank", lambda line, other: [""]),
    ("spaces", lambda line, other: [" \t "]),
    ("no-break-space", lambda line, other: ["\u00a0"]),
    ("ideographic-space", lambda line, other: [" \u3000 "]),
]
LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\u2028", "\x0c"])
PIECE_SIZES = st.sampled_from([1, 3, 64, 512, 1 << 14])


@st.composite
def join_breaking_text(draw, good):
    """Lines ``good(i)``, one in three turned by a break of JOIN_BREAKS, with mixed line ends.

    Most breaks end the load, so a break is the first one often only when breaks are few.
    """
    lines = []
    for i in range(draw(st.integers(1, 12))):
        _, turn = draw(st.sampled_from(JOIN_BREAKS)) if draw(st.integers(0, 2)) == 0 else JOIN_BREAKS[0]
        lines.extend(turn(good(i), good(i + 100)))
    return "".join(line + draw(LINE_ENDS) for line in lines)


def pool_line(i):
    return pool_filler(i + 1)[i]


def panel_line(i):
    return json.dumps({"id": f"p{i}", "label": i % 2 == 0,
                       "reviews": [{"reviewer": "r1", "rubric": [i, 2.5], "flag": False},
                                   {"reviewer": "r2", "overall": 6, "flag": True, "feedback": "ok"}]})


def joined_traps(good):
    """Texts whose pieces only the NaN count or the NaN items of ``_joined`` tell from good ones."""
    breaks = dict(JOIN_BREAKS)
    return ["".join(line + "\n" for line in breaks[name](good(0), good(100)) + [good(1)])
            for name in ("nan-separator-then-split", "split-then-two-objects")]


BLANK_LINES = ["", " ", " \t ", "\u00a0", " \u3000 "]  # lines the loaders skip
# blank lines to spread through a text: (where, as a share of its lines in millionths, line, line end)
SPREAD_BLANKS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(BLANK_LINES), LINE_ENDS), max_size=12)


def spread(text, blanks):
    """``text`` with the blank lines of ``blanks`` put between its lines."""
    lines = text.splitlines(keepends=True)
    for where, blank, end in blanks:
        lines.insert(where * len(lines) // 10**6, blank + end)
    return "".join(lines)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(PIECE_SIZES, st.integers(0, 40), join_breaking_text(pool_line), SPREAD_BLANKS)
@example(1 << 14, 0, joined_traps(pool_line)[0], [])
@example(1 << 14, 0, joined_traps(pool_line)[1], [])
def test_piece_decoder_matches_per_line_on_a_pool(size, filler, text, blanks):
    with mock.patch.object(records_module, "_CHUNK", size):
        assert_pool_loaders_agree(spread("".join(line + "\n" for line in pool_filler(filler)) + text, blanks))


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(PIECE_SIZES, st.integers(0, 40), join_breaking_text(panel_line), SPREAD_BLANKS)
@example(1 << 14, 0, joined_traps(panel_line)[0], [])
@example(1 << 14, 0, joined_traps(panel_line)[1], [])
def test_piece_decoder_matches_per_line_on_panels(size, filler, text, blanks):
    with mock.patch.object(records_module, "_CHUNK", size):
        assert_panel_loaders_agree(spread(filler_lines(filler) + text, blanks))


@pytest.mark.parametrize("size", [1, 64, 1 << 14])
@pytest.mark.parametrize("kind", ["pool", "panel"])
def test_blank_lines_keep_their_piece_on_the_one_scan_path(tmp_path, kind, size):
    good, load = {"pool": (pool_line, load_calibration_table), "panel": (panel_line, load_panel_table)}[kind]
    text = "".join(good(i) + "\n" + (BLANK_LINES[i % 5] + "\r\n" if i % 7 == 0 else "") for i in range(300))
    path = write(tmp_path, "input.jsonl", " \n" + text + "\n\n")
    with mock.patch.object(records_module, "_CHUNK", size):
        with mock.patch.object(records_module, "_line_objects", side_effect=AssertionError("decoded per line")):
            table = load(path)
        with mock.patch.object(records_module, "_joined", lambda lines: None):
            assert table_bytes(table) == table_bytes(load(path))
    assert table.lines[:3].tolist() == [2, 4, 5]


def table_bytes(table):
    """Every column of ``table``, arrays as bytes so that -0.0 differs from 0.0, and string columns by their
    strings (a ``tables.Strings`` compares by identity)."""
    return [(value.dtype, value.tobytes()) if isinstance(value, np.ndarray)
            else value if isinstance(value, str) else tuple(value)
            for value in (getattr(table, field.name) for field in dataclasses.fields(table))]


@pytest.mark.parametrize("kind", ["pool", "panel"])
def test_a_line_nested_to_the_decoder_limit_loads(tmp_path, kind):
    # one scan of a piece nests each line one level deeper than the line alone: the deepest
    # line the per-line path decodes must fall back to it, and load as it loads there
    good, load = {"pool": (pool_line, load_calibration_table), "panel": (panel_line, load_panel_table)}[kind]
    joined = records_module._joined

    def outcome_at(depth, piece_decoder):
        deep = with_field(good(0), "[" * depth + "]" * depth)
        path = write(tmp_path, "input.jsonl", deep + "\n" + good(1) + "\n")
        with mock.patch.object(records_module, "_joined", piece_decoder):
            try:
                return table_bytes(load(path))
            except RecordError as exc:
                return str(exc)

    def per_line(lines):
        return None

    low, high = 1, 100_000  # the per-line path decodes a line this deep, and not this deep
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if isinstance(outcome_at(middle, per_line), str) else (middle, high)
    taken = []

    def spy(lines):
        taken.append(joined(lines))
        return taken[-1]

    assert outcome_at(low, spy) == outcome_at(low, per_line)
    assert taken == [None]  # the piece went line by line
    assert outcome_at(high, spy).endswith(":1: invalid JSON: nested too deeply")
