"""The column cache: an entry gives back, byte for byte, the table it was written from.

Tables are loaded from drawn JSONL files, so they hold what a load gives:
ragged rubrics padded with NaN, -0.0, reviews and statuses that repeat,
and strings that hold line breaks and NULs, and lone surrogates in the
feedback, the one text field the loaders let keep them.  Anything
that is not an entry of this table's bytes reads as a miss.
"""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelcal import cache, reader, records, rules, tables
from panelcal.records import load_calibration_table, load_panel_table

# any character and the separators a string column could be split at; a feedback may also hold a lone
# surrogate, which the loaders refuse in ids, reviewer names and statuses
TEXT = st.text(st.characters() | st.sampled_from(["\n", "\x00", "\u2028"]), max_size=5)
FEEDBACK = st.text(st.characters() | st.sampled_from(["\ud800", "\udfff", "\n", "\x00", "\u2028"]), max_size=5)
NAME = st.text(st.characters(blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
               min_size=1, max_size=4)
NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**30), 10**30))


@st.composite
def panel_file(draw):
    names = draw(st.lists(NAME, min_size=1, max_size=4, unique=True))
    panels = []
    for i in range(draw(st.integers(1, 6))):
        reviewers = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
        width = draw(st.integers(1, 3))
        panel = {"id": f"p{i}" + draw(NAME), "reviews": [
            {"reviewer": name, "rubric": draw(st.lists(NUMBER, min_size=width, max_size=width)),
             "flag": draw(st.booleans()), **({"feedback": draw(FEEDBACK)} if draw(st.booleans()) else {})}
            for name in reviewers]}
        label = draw(st.sampled_from([True, False, None, "absent"]))
        if label != "absent":
            panel["label"] = label
        panels.append(panel)
    return "".join(json.dumps(panel) + "\n" for panel in panels)


@st.composite
def pool_file(draw):
    statuses = draw(st.lists(TEXT.filter(bool), min_size=1, max_size=3))
    return "".join(json.dumps({"id": f"c{i}" + draw(NAME), "score": draw(NUMBER), "accept": draw(st.booleans()),
                               "status": draw(st.sampled_from(statuses))}) + "\n"
                   for i in range(draw(st.integers(1, 8))))


def columns(table):
    """Each field of ``table`` as it is held, with no copy."""
    return [getattr(table, field.name) for field in dataclasses.fields(table)]


def strings(table):
    """The string columns of ``table``, by name: each a ``tables.Strings``, the roster too."""
    return {field.name: getattr(table, field.name) for field in dataclasses.fields(table)
            if field.name != "path" and not isinstance(getattr(table, field.name), np.ndarray)}


def table_bytes(table):
    """Every column of ``table``: arrays as (dtype, shape, bytes) so that -0.0 differs from 0.0, and string
    columns by their strings, a ``Strings`` also by the parts an entry stores (a ``Strings`` compares by
    identity)."""
    return [(value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
            else value if isinstance(value, str) else (tuple(value), parts(value)) for value in columns(table)]


def parts(column):
    """What an entry stores of a ``Strings`` column, the codes as bytes."""
    codes = None if column.codes is None else column.codes.astype("<u4").tobytes()
    return *column.joined(), column.n_strings, codes


def round_trip(tmp_path, kind, text):
    path = tmp_path / "input.jsonl"
    path.write_text(text, encoding="utf-8")
    table = {"panel": load_panel_table, "pool": load_calibration_table}[kind](path)
    entry = tmp_path / "entry"
    cache.write(entry, kind, "digest", table)
    restored = cache.read(entry, kind, "digest", str(path))
    assert restored is not None
    parsed = strings(table)
    for name, column in strings(restored).items():  # the length is known before the first read splits the text
        assert isinstance(column, tables.Strings)
        assert type(parsed[name]) is type(column)  # a parse builds the form a hit restores
        assert len(column) == len(parsed[name])
    assert len(restored) == len(table)
    for name, column in strings(restored).items():
        assert column[1:3] == parsed[name][1:3]
        assert column[::-1] == parsed[name][::-1]
    assert table_bytes(restored) == table_bytes(table)
    assert all(value.flags.writeable for value in columns(restored) if isinstance(value, np.ndarray))
    again = tmp_path / "again"  # a restored table is written and read back as the parsed one was
    cache.write(again, kind, "digest", restored)
    assert table_bytes(cache.read(again, kind, "digest", str(path))) == table_bytes(table)
    assert again.read_bytes() == entry.read_bytes()
    return entry


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(panel_file())
@example('{"id": "p1", "reviews": []}\n')  # no reviews: empty review columns
@example('{"id": "p1", "reviews": [{"reviewer": "r", "rubric": [-0.0, 1], "flag": true, "feedback": "a\\nb"},'
         ' {"reviewer": "s", "overall": 2, "flag": false}]}\n')
def test_a_panel_table_comes_back_from_its_entry(tmp_path_factory, text):
    round_trip(tmp_path_factory.mktemp("panel"), "panel", text)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(pool_file())
def test_a_pool_table_comes_back_from_its_entry(tmp_path_factory, text):
    round_trip(tmp_path_factory.mktemp("pool"), "pool", text)


POOL = '{"id": "c1", "score": 2.0, "accept": false, "status": "reject"}\n'


@pytest.mark.parametrize("spoil", ["other-digest", "other-kind", "empty", "no-header", "foreign-json",
                                   "deep-header", "header-only", "directory", "missing"])
def test_anything_but_this_tables_entry_is_a_miss(tmp_path, spoil):
    entry = round_trip(tmp_path, "pool", POOL)
    digest, kind = "digest", "pool"
    if spoil == "other-digest":
        digest = "other"
    elif spoil == "other-kind":
        kind = "panel"
    elif spoil == "directory":
        entry.unlink()
        entry.mkdir()
    elif spoil == "missing":
        entry.unlink()
    else:
        header = entry.read_bytes().split(b"\n")[0] + b"\n"
        entry.write_bytes({"empty": b"", "no-header": b"\x00" * 64, "foreign-json": b"[1, 2]\n" + b"\x00" * 32,
                           "deep-header": b"[" * 100_000 + b"\n", "header-only": header}[spoil])
    assert cache.read(entry, kind, digest, "pool.jsonl") is None


def resign(data):
    """``data`` with its trailing sha256 made again, so that only the read-time checks can refuse it."""
    return data[:-32] + hashlib.sha256(data[:-32]).digest()


def string_column(data, name):
    """Where the string column ``name`` of the entry ``data`` lies: its header item, the offset of its blob
    and the offset of its codes."""
    end = data.index(b"\n") + 1
    offset = end
    for item in json.loads(data[:end])["columns"]:
        size = item["bytes"] if "sep" in item else np.dtype(item["dtype"]).itemsize * math.prod(item["shape"])
        codes = offset + size + -size % 8
        if item["name"] == name:
            return item, offset, codes
        offset = codes
        if item.get("codes") is not None:
            offset += 4 * item["codes"] + -4 * item["codes"] % 8


# 300 records of two statuses: ids kept whole, statuses as two strings and a code each
CODED = "".join(json.dumps({"id": f"c{i}", "score": i, "accept": i % 2 == 0, "status": "ab"[i % 2]}) + "\n"
                for i in range(300))


@pytest.mark.parametrize("fault", ["one-separator-short", "code-past-the-strings", "not-utf-8"])
def test_an_entry_whose_strings_do_not_split_is_a_miss_at_read(tmp_path, fault):
    """Each read-time check of a string column refuses a spoiled entry whose sha256 was made again, so a
    hit's column, split on first read, cannot fail then."""
    entry = round_trip(tmp_path, "pool", CODED)
    data = bytearray(entry.read_bytes())
    if fault == "one-separator-short":  # ids c0 and c1 read as one
        _, blob, _ = string_column(data, "ids")
        data[data.index(b"\n", blob)] = ord("x")
    elif fault == "code-past-the-strings":
        item, _, codes = string_column(data, "statuses")
        data[codes : codes + 4] = item["count"].to_bytes(4, "little")
    else:
        _, blob, _ = string_column(data, "ids")
        data[blob] = 0xFF
    entry.write_bytes(resign(bytes(data)))
    assert cache.read(entry, "pool", "digest", "pool.jsonl") is None


def test_an_entry_that_cannot_be_written_leaves_nothing(tmp_path):
    (tmp_path / "pool.jsonl").write_text(POOL, encoding="utf-8")
    table = load_calibration_table(tmp_path / "pool.jsonl")
    entry = tmp_path / "entry"
    entry.mkdir()  # os.replace cannot put a file over a directory
    cache.write(entry, "pool", "digest", table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["entry", "pool.jsonl"]
    assert list(entry.iterdir()) == []


def test_the_key_holds_the_loader_source():
    source = b"".join(Path(module.__file__).read_bytes() for module in (records, reader, tables, rules, cache))
    assert cache.interpreter_key()["loader"] == hashlib.sha256(source).hexdigest()


def test_the_key_covers_every_module_a_parse_runs(tmp_path):
    """A fresh interpreter parses a panel file and a pool through the cache's loaders; every
    panelcal module it has then loaded is in the key, but for the package, whose version is."""
    (tmp_path / "panels.jsonl").write_text(
        '{"id": "p1", "label": true, "reviews": [{"reviewer": "m1", "overall": 5, "flag": false}]}\n')
    (tmp_path / "pool.jsonl").write_text(POOL)
    probe = ("import json, sys\n"
             "from panelcal import cache, records\n"
             "for kind, path in (('panel', 'panels.jsonl'), ('pool', 'pool.jsonl')):\n"
             "    getattr(records, cache.KINDS[kind][1])(path)\n"
             "loaded = sorted(name for name in sys.modules if name.startswith('panelcal.'))\n"
             "print(json.dumps([loaded, ['panelcal.' + name.removesuffix('.py') for name in cache.LOADER]]))\n")
    src = str(Path(cache.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True,
                          text=True, check=True)
    loaded, hashed = json.loads(proc.stdout)
    assert {"panelcal.records", "panelcal.reader"} <= set(loaded)
    assert set(loaded) <= set(hashed)


def test_without_the_loader_source_no_entry_is_used_or_written(tmp_path, monkeypatch):
    entry = round_trip(tmp_path, "pool", POOL)
    monkeypatch.setattr(cache, "_loader_digest", lambda: None)
    assert cache.read(entry, "pool", "digest", "pool.jsonl") is None
    entry.unlink()
    cache.write(entry, "pool", "digest", load_calibration_table(tmp_path / "input.jsonl"))
    assert not entry.exists()


def test_prune_removes_only_the_entries_of_inputs_that_are_gone(tmp_path):
    directory = tmp_path / "entries"
    directory.mkdir()
    for name in ("kept", "gone"):
        (tmp_path / name).mkdir()
        round_trip(tmp_path / name, "pool", POOL).rename(directory / name)
    (tmp_path / "gone" / "input.jsonl").unlink()
    (directory / "foreign").write_bytes(b'{"source": 1}\n')
    (directory / "no-header").write_bytes(b"\x00" * 64)
    (directory / "a-directory").mkdir()
    cache.prune(directory)
    assert sorted(p.name for p in directory.iterdir()) == ["a-directory", "foreign", "kept", "no-header"]
    cache.prune(tmp_path / "missing")  # no cache yet: nothing to do


def test_a_column_that_repeats_early_comes_back_as_one_string_per_value(tmp_path):
    entry = round_trip(tmp_path, "pool", CODED)
    restored = cache.read(entry, "pool", "digest", "pool.jsonl")
    assert len(set(map(id, restored.statuses))) == 2
    assert len(set(map(id, restored.ids))) == 300


# strings that stress the encoding: line feeds and the first characters the separator search tries next, a
# character outside the BMP and lone surrogates, which only a feedback may hold, and "" (the empty text)
ENCODED = st.text(st.characters() | st.sampled_from(["\n", "\x00", "\x01", "\U0001f600", "\ud800", "\udfff"]),
                  max_size=4)


@st.composite
def string_columns(draw):
    """A string column: 0, 255, 256 or 300 distinct fillers, then drawn strings, which may repeat; behind 256
    fillers or more, a repeat falls past the probe."""
    fillers = draw(st.sampled_from([0, 0, 255, 256, 300]))
    return [f"#{k}" for k in range(fillers)] + draw(st.lists(ENCODED, max_size=8))


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(string_columns(), st.data())
@example([], None)
@example(["a\nb", "\x00", "\x01"], None)  # the separator is the third candidate, chr(2)
@example(["", ""], None)
@example([f"#{k}" for k in range(255)] + ["#0"], None)  # the first repeat is the 256th entry: codes
@example([f"#{k}" for k in range(256)] + ["#0"], None)  # the first repeat is the 257th entry: no codes
def test_a_string_column_encodes_once_and_comes_back_from_an_entry(tmp_path_factory, column, data):
    """``Strings.of`` is the one encoding of a string column: its rows, a take of them and an entry's parts."""
    strings = tables.Strings.of(column)
    assert list(strings) == column
    assert len(strings) == len(column)
    head = column[:256]
    assert (strings.codes is not None) == (len(set(head)) < len(head))
    held = set("".join(column))  # the separator the entry format fixes: a line feed, else the first free character
    assert strings.joined()[1] == (
        "\n" if column and "\n" not in held else min(set(map(chr, range(len(held) + 1))) - held))
    assert len(strings.strings) == strings.n_strings
    rows = data.draw(st.lists(st.integers(0, len(column) - 1))) if column and data else []
    taken = strings.take(np.array(rows, dtype=np.intp))
    assert list(taken) == [column[i] for i in rows]
    # the columns of an entry need not be of one length: a taken column, whose codes index the whole text,
    # is stored as it is held too
    table = tables.CalibrationTable(path="pool.jsonl", ids=strings, lines=np.arange(len(column)),
                                    scores=np.zeros(len(column)), accepts=np.zeros(len(column), dtype=bool),
                                    statuses=taken)
    entry = tmp_path_factory.mktemp("strings") / "entry"
    cache.write(entry, "pool", "digest", table)
    restored = cache.read(entry, "pool", "digest", "pool.jsonl")
    assert restored is not None
    assert table_bytes(restored) == table_bytes(table)


def test_only_the_cache_joins_a_string_column(tmp_path):
    """``Strings.of``, the constructor, ``take``, ``writers.texts`` and ``PanelTable.from_panels`` join nothing;
    on a hit, ``joined`` gives back the parts the entry stores, with no split; and in the package only
    ``cache._store`` calls ``joined``."""
    import ast

    from panelcal import writers
    from panelcal.objects import ReviewPanel, ReviewRecord, RubricVector

    panels = [ReviewPanel(f"p{i}", (ReviewRecord("r2", RubricVector((1.0,)), True, "a\nb"),
                                    ReviewRecord("r1", RubricVector((2.0,)), False, "")), i % 2 == 0)
              for i in range(3)]
    table = tables.PanelTable.from_panels(panels)
    built = [tables.Strings.of(["x", "y", "x"]), tables.Strings.of(["x", "y"]),
             tables.Strings(("no", "yes"), np.array([True, False])), *writers.texts(np.array([0.5, -0.0]), repr, str),
             table.ids, table.roster, table.feedback]
    built += [column.take(np.array([1, 0], dtype=np.intp)) for column in built]
    assert [column._text for column in built] == [None] * len(built)

    entry = tmp_path / "entry"
    cache.write(entry, "panel", "digest", table)
    restored = cache.read(entry, "panel", "digest", "panels.jsonl")
    header = json.loads(entry.read_bytes().split(b"\n", 1)[0])
    stored = {item["name"]: item for item in header["columns"] if "sep" in item}
    assert sorted(stored) == ["feedback", "ids", "roster"]
    for name, item in stored.items():
        text, sep = getattr(restored, name).joined()
        assert getattr(restored, name)._strings is None  # given back as stored, not split and joined again
        assert (sep, len(text.encode("utf-8", "surrogatepass"))) == (item["sep"], item["bytes"])
        assert (text, sep) == getattr(table, name).joined()

    calls = []
    for path in sorted(Path(cache.__file__).parent.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef):
                calls += [(path.name, function.name) for node in ast.walk(function) if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute) and node.func.attr == "joined"]
    assert calls == [("cache.py", "_store")]
