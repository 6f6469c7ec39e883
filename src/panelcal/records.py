"""JSONL record loading for review panels and calibration pools.

One JSON object per line.  Panel lines look like

    {"id": "p1", "label": true,
     "reviews": [{"reviewer": "r1", "rubric": [6, 7], "flag": false,
                  "feedback": "..."}]}

where "label" and "feedback" are optional and a review may carry a
scalar "overall" instead of a "rubric" (it becomes a one-criterion
rubric).  A panel file is parsed once, into a columnar ``PanelTable``;
``load_panel_records`` builds ``PanelRecord`` objects from it.  The tables
are defined in ``panelcal.tables`` and ``PanelRecord`` in
``panelcal.objects``; this module exports them.
Calibration lines look like

    {"id": "c1", "score": 6.5, "accept": true, "status": "accept"}

and a pool file is parsed once, into a columnar ``CalibrationTable``;
``load_calibration_records`` builds ``CalibrationRecord`` objects from it.

Files are read, decoded and their JSON errors worded by
``panelcal.reader``; this module exports its ``load_config``.
Malformed input raises RecordError naming the file,
line, and field.  Both JSONL loaders run one shell over one pass of the
file: the fields go into columns, and each loader has one ordered list of
line rules, each a whole-column check that finds its first broken line
(or review) and words its message.  The error raised is the break with
the smallest (line, review row, rule position).
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any, Container, Iterable

import numpy as np

from . import _lazy
from .reader import _decode, _decode_text, _read_bytes, load_config
from .rules import RecordError, json_number, numbers
from .tables import CalibrationTable, PanelTable, left_sums

if TYPE_CHECKING:
    from .objects import CalibrationRecord, PanelRecord

__all__ = [
    "RecordError",
    "PanelRecord",
    "PanelTable",
    "load_panel_table",
    "left_sums",
    "load_panel_records",
    "CalibrationTable",
    "load_calibration_table",
    "load_calibration_records",
    "load_config",
]

__getattr__, __dir__ = _lazy(__name__, {"objects": ("PanelRecord",)})


_scan = json.JSONDecoder().scan_once  # raw_decode's scanner, without its whitespace match
_JSON_SPACE = " \t\n\r"


_CHUNK = 1 << 14  # characters decoded at once: few enough objects that a load runs no GC collection


def _pieces(text: str, chunk: int):
    """(number of the first line, lines) of each piece of ``text``, about ``chunk`` characters long.

    Each piece ends just after a ``\n`` (or at the end of ``text``), so no
    ``\r\n`` pair is cut in two and every piece ends a line: the lines and
    their numbers are those of ``text.splitlines()``, without a list of them all.
    """
    line_no = 1
    start = 0
    while start < len(text):
        end = text.find("\n", start + chunk - 1) + 1 or len(text)
        lines = text[start:end].splitlines()
        yield line_no, lines
        line_no += len(lines)
        start = end


_NAN = json.decoder.NaN  # the one float the decoder gives for each NaN token


def _joined(lines: list[str]) -> list[dict] | None:
    """The objects of ``lines`` from one scan, or None unless each line is exactly one JSON object.

    The k lines are scanned as one array, ``[line,NaN,line,...,NaN,line]``.
    When the text holds no NaN but the k - 1 separators, the scan ends at
    its end, and the array has 2k - 1 items, each odd one the decoder's NaN
    and each even one a dict, then every separator is an item of the outer
    array: each line is one JSON object between JSON whitespace, decoded as
    ``json.loads`` decodes it alone.
    """
    text = "[" + ",NaN,".join(lines) + "]"
    k = len(lines)
    if text.count("NaN") != k - 1:
        return None
    try:
        items, end = _scan(text, 0)
    except (ValueError, StopIteration, RecursionError):  # the per-line path words the error
        return None
    objects = items[::2]
    if end != len(text) or len(items) != 2 * k - 1 or items[1::2].count(_NAN) != k - 1:
        return None
    return objects if set(map(type, objects)) <= {dict} else None


def _line_objects(
    path: str | Path, first: int, lines: list[str]
) -> tuple[list[int], list[dict], RecordError | None]:
    """Numbers and objects of the non-blank lines, one scan a line, then the error that stops them.

    The line stripped of JSON whitespace is scanned; ``_decode`` runs only
    when that fails, to word the error.  The lines stop at the first that is
    not a JSON object, whose RecordError comes last (None if every line is
    one).  A function, not a generator, so that a line is scanned at the
    depth at which ``_joined`` scans its piece: there the line sits one
    level further in, so a line at the decoder's limit fails there and
    loads here.
    """
    numbers: list[int] = []
    objects: list[dict] = []
    for line_no, line in enumerate(lines, first):
        value = line.strip(_JSON_SPACE)
        if not value or value.isspace():
            continue
        try:
            obj, end = _scan(value, 0)
        except (ValueError, StopIteration, RecursionError):  # StopIteration: no value starts there
            end = -1
        try:
            if end != len(value):
                obj = _decode(line, f"{path}:{line_no}")
            if type(obj) is not dict:
                raise RecordError(f"{path}:{line_no}: each line must be a JSON object")
        except RecordError as exc:
            return numbers, objects, exc
        numbers.append(line_no)
        objects.append(obj)
    return numbers, objects, None


def _json_objects(path: str | Path, text: str):
    """(line numbers, objects) of the non-blank lines of ``text``, the JSONL file at ``path``, a piece at a time.

    ``_joined`` decodes a piece in one scan.  A blank line (empty or
    whitespace only, which the per-line path skips) breaks that scan, so a
    piece that holds one is joined again without its blank lines, and its
    line numbers are those of the lines kept.  A piece that ``_joined``
    does not take goes a line at a time.  A line that is not a JSON object
    raises RecordError once the objects of the lines before it in its piece
    are yielded.
    """
    for first, lines in _pieces(text, _CHUNK):
        numbers = range(first, first + len(lines))
        objects = None if "" in lines else _joined(lines)  # an empty line would stop the scan part way
        if objects is None:
            numbers = [n for n, line in zip(numbers, lines) if line and not line.isspace()]
            if len(numbers) < len(lines):
                objects = _joined([lines[n - first] for n in numbers]) if numbers else []
        if objects is not None:
            yield numbers, objects
            continue
        numbers, objects, stop = _line_objects(path, first, lines)
        yield numbers, objects
        if stop is not None:
            raise stop


_Break = tuple[Any, str] | None  # a rule's first break: (its row, its message), or None


def _pieces_of(path: str | Path, data: bytes | None):
    """``_json_objects`` of the JSONL file at ``path``, whose bytes are ``data`` or, without it, read here."""
    return _json_objects(path, _decode_text(path, _read_bytes(path) if data is None else data))


def _load(path: str | Path, columns: _PanelColumns | _PoolColumns, pieces) -> Any:
    """The table ``columns`` builds from ``pieces``, the JSONL file at ``path``, or its first error.

    Only the pieces hold the file's text, so it is freed before the table
    is built.  ``columns.rules()`` gives each line rule's first break as
    ((line index, review row), message), in order on a line.  A line that
    is not a JSON object ends the pass, but a rule broken on an earlier
    line comes first.
    """
    lines: list[int] = []
    stop = None
    try:
        for numbers, objects in pieces:
            lines.extend(numbers)
            columns.take(objects)
            objects.clear()  # the piece is freed before the next is decoded
    except RecordError as exc:
        stop = exc
    broken = [(hit[0], position, hit[1]) for position, hit in enumerate(columns.rules()) if hit]
    if broken:
        (i, _), _, message = min(broken)
        raise RecordError(f"{path}:{lines[i]}: {message}")
    if stop is not None:
        raise stop
    if not lines:
        raise RecordError(f"{path}: no records found")
    return columns.table(str(path), lines)


def _fit(column: list[Any], kinds: set[type], placeholder: Any, marks: list[int] | None = None,
         start: int = 0) -> list[Any]:
    """``column`` with ``placeholder`` for each entry whose type is not in ``kinds``.

    Their indices, counted from ``start``, go to ``marks``.
    """
    if set(map(type, column)) <= kinds:
        return column
    if marks is not None:
        marks.extend(k for k, value in enumerate(column, start) if type(value) not in kinds)
    return [value if type(value) in kinds else placeholder for value in column]


def _typed(column: list[Any], kinds: set[type], message: str) -> _Break:
    """The first entry whose type is not in ``kinds``, and ``message``."""
    if set(map(type, column)) <= kinds:
        return None
    return next(k for k, value in enumerate(column) if type(value) not in kinds), message


def _text(key: str, column: list[str], present: Container[str]) -> _Break:
    """The first "" in ``column``, which holds "" for each field ``key`` that is not a string.

    ``present`` holds the strings of ``column``, or is ``column``.
    """
    return (column.index(""), f"field {key!r} must be a non-empty string") if "" in present else None


def _one_line(key: str, column: list[str], present: Iterable[str]) -> _Break:
    """The first entry of ``column`` that holds a line break; a written row of it would read back as two.

    ``present`` holds the strings of ``column``, or is ``column``.
    """
    if not _breaks("".join(present)):
        return None
    k = next(k for k, value in enumerate(column) if _breaks(value))
    return k, f"field {key!r} must not contain a line break"


def _breaks(text: str) -> bool:
    """Whether ``text`` holds a character that ``str.splitlines`` splits at."""
    return text.splitlines() not in ([text], [])


_SURROGATE = re.compile("[\ud800-\udfff]")  # a code point no output can encode as UTF-8


def _unicode(key: str, column: list[str], present: Iterable[str]) -> _Break:
    """The first entry of ``column`` that holds a lone surrogate (a ``"\\ud800"`` escape).

    ``present`` holds the strings of ``column``, or is ``column``.
    """
    text = "".join(present)
    if text.isascii() or not _SURROGATE.search(text):
        return None
    k = next(k for k, value in enumerate(column) if _SURROGATE.search(value))
    return k, f"field {key!r} must not contain a lone surrogate"


def _numbers(values: list[Any]) -> tuple[np.ndarray | None, int | None, int | None]:
    """(``rules.numbers(values)``, None, None) if each value is a finite JSON number, else None, the index of
    the first value that is not a JSON number (``json_number`` is None) and that of the first that is not finite."""
    try:
        flat = numbers("values", values)
    except ValueError:
        flat = None
    if flat is not None and np.isfinite(flat).all():
        return flat, None, None
    floats = list(map(json_number, values))
    not_number = next((k for k, f in enumerate(floats) if f is None), None)
    not_finite = next((k for k, f in enumerate(floats) if f is not None and not math.isfinite(f)), None)
    return None, not_number, not_finite


def _owner(sizes: list[int], j: int) -> tuple[int, int]:
    """(i, k): entry ``j`` of groups ``sizes`` long, laid back to back, is entry ``k`` of group ``i``."""
    ends = np.cumsum(sizes)
    i = int(np.searchsorted(ends, j, side="right"))
    return i, j - int(ends[i]) + sizes[i]


def _duplicate(noun: str, ids: list[str]) -> _Break:
    """The first id that an earlier line holds too."""
    if _distinct(ids):
        return None
    first: dict[str, int] = {}
    i = next(i for i, key in enumerate(ids) if first.setdefault(key, i) != i)
    return i, f"duplicate {noun} id {ids[i]!r}"


def _distinct(ids: list[str]) -> bool:
    """Whether no id is repeated.

    Sorted hashes take 8 bytes an id where a set of the ids takes up to
    130; the set is built only when two hashes are equal.
    """
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any() or len(set(ids)) == len(ids)


def load_panel_table(path: str | Path, data: bytes | None = None) -> PanelTable:
    """Parse panel JSONL into a PanelTable; duplicate panel ids are rejected.

    ``data``, when given, is the file's bytes, already read.  Only the
    checks of single lines run here; ``PanelTable.validate`` checks the
    panels as a whole.
    """
    pieces = _pieces_of(path, data)
    del data  # the pieces hold the only copy of the file, as text: it is freed before the table is built
    return _load(path, _PanelColumns(), pieces)


class _PanelColumns:
    """A panel file's fields in columns, one entry per panel and one per review.

    A field that cannot go into its column as it is takes a placeholder
    that breaks its rule: "" for an id or a reviewer that is not a string,
    [] for a rubric that is not an array.  The rows whose break no
    placeholder shows are marked as the fields are taken: ``not_arrays``
    (panels), ``not_objects`` and ``neither`` (reviews with neither a rubric
    nor an overall); ``single`` marks the reviews given by an ``overall``.
    """

    def __init__(self) -> None:
        self.ids, self.labels, self.counts = [], [], []  # one entry per panel
        self.reviewer, self.criteria, self.flags, self.feedback = [], [], [], []  # one entry per review
        self.values: list[Any] = []  # the rubrics back to back
        self.names: dict[str, str] = {}  # one string per reviewer name, so the decoded copies are freed
        self.not_arrays, self.not_objects, self.neither, self.single = [], [], [], []

    def take(self, piece: list[dict]) -> None:
        """Put a piece's decoded lines into the columns; only a failed type-set check goes entry by entry."""
        rows = len(self.reviewer)
        panel_reviews = _fit([obj.get("reviews") for obj in piece], {list}, [], self.not_arrays, len(self.ids))
        reviews = _fit([r for each in panel_reviews for r in each], {dict}, {}, self.not_objects, rows)
        rubrics = [
            r["rubric"] if "rubric" in r else (r["overall"],) if "overall" in r else () for r in reviews
        ]
        if not set(map(type, rubrics)) <= {list}:  # an overall, neither field, or a bad rubric
            for j, rubric in enumerate(rubrics, rows):
                if type(rubric) is tuple:
                    (self.single if rubric else self.neither).append(j)
            rubrics = _fit(rubrics, {list, tuple}, [])
        reviewers = _fit([r.get("reviewer") for r in reviews], {str}, "")
        self.ids.extend(_fit([obj.get("id") for obj in piece], {str}, ""))
        self.labels.extend([obj.get("label") for obj in piece])
        self.counts.extend(map(len, panel_reviews))
        self.reviewer.extend(map(self.names.setdefault, reviewers, reviewers))
        self.criteria.extend(map(len, rubrics))
        self.flags.extend([r.get("flag") for r in reviews])
        self.feedback.extend([r.get("feedback", "") for r in reviews])
        self.values.extend([v for rubric in rubrics for v in rubric])

    def rules(self) -> list[_Break]:
        """The first break of each line rule: the panel's own fields, each review in turn, the id's repeat."""
        self.flat, not_number, not_finite = _numbers(self.values)
        panel = [
            _text("id", self.ids, self.ids),
            _one_line("id", self.ids, self.ids),
            _unicode("id", self.ids, self.ids),
            _typed(self.labels, {bool, type(None)}, "field 'label' must be a boolean or null"),
            (self.not_arrays[0], "field 'reviews' must be an array") if self.not_arrays else None,
        ]
        review = [
            (self.not_objects[0], "each review must be a JSON object") if self.not_objects else None,
            _text("reviewer", self.reviewer, self.names),
            _one_line("reviewer", self.reviewer, self.names),
            _unicode("reviewer", self.reviewer, self.names),
            (self.neither[0], "each review needs a 'rubric' array or an 'overall' number")
            if self.neither else None,
            (self.criteria.index(0), "field 'rubric' must be a non-empty array of numbers")
            if 0 in self.criteria else None,
            self._value(not_number, number=True),
            self._value(not_finite, number=False),
            _typed(self.flags, {bool}, "field 'flag' must be a boolean"),
            _typed(self.feedback, {str}, "field 'feedback' must be a string"),
        ]
        repeat = _duplicate("panel", self.ids)
        return [
            *(hit and ((hit[0], -1), hit[1]) for hit in panel),
            *map(self._review, review),
            repeat and ((repeat[0], len(self.reviewer)), repeat[1]),
        ]

    def _review(self, hit: _Break) -> _Break:
        """A break of review row ``j``, which its panel calls ``reviews[k]``."""
        if hit is None:
            return None
        j, message = hit
        i, k = _owner(self.counts, j)
        return (i, j), f"reviews[{k}]: {message}"

    def _value(self, v: int | None, number: bool) -> _Break:
        """A break of rubric value ``v``: not a number (``number``), or not finite."""
        if v is None:
            return None
        j, k = _owner(self.criteria, v)
        if j in self.single:
            message = "field 'overall' must be a number" if number else "field 'overall' must be finite"
        elif number:
            message = f"field 'rubric[{k}]' must be a number"
        else:
            message = f"values[{k}]: must be finite, got {self.values[v]!r}"
        return j, message

    def table(self, path: str, lines: list[int]) -> PanelTable:
        return PanelTable.from_columns(path, self.ids, lines, self.counts, self.labels, self.reviewer,
                                       self.flat, self.criteria, self.flags, self.feedback)


def load_panel_records(path: str | Path) -> list[PanelRecord]:
    """Load panel JSONL as records; duplicate panel ids are rejected."""
    table = load_panel_table(path)
    return [table.record(i) for i in range(len(table))]


def load_calibration_table(path: str | Path, data: bytes | None = None) -> CalibrationTable:
    """Parse calibration JSONL into a CalibrationTable; duplicate ids are rejected.

    ``data`` is as for ``load_panel_table``.
    """
    pieces = _pieces_of(path, data)
    del data
    return _load(path, _PoolColumns(), pieces)


class _PoolColumns:
    """A pool file's fields in columns, one entry per line; "" stands for an id or a status that is not a string."""

    def __init__(self) -> None:
        self.ids, self.scores, self.accepts, self.statuses = [], [], [], []
        self.vocabulary: dict[str, str] = {}  # one string per status, so the decoded copies are freed

    def take(self, piece: list[dict]) -> None:
        status = _fit([obj.get("status") for obj in piece], {str}, "")
        self.ids.extend(_fit([obj.get("id") for obj in piece], {str}, ""))
        self.scores.extend([obj.get("score") for obj in piece])
        self.accepts.extend([obj.get("accept") for obj in piece])
        self.statuses.extend(map(self.vocabulary.setdefault, status, status))

    def rules(self) -> list[_Break]:
        """The first break of each line rule, in order on a line."""
        self.flat, not_number, not_finite = _numbers(self.scores)
        hits = [
            _text("id", self.ids, self.ids),
            _unicode("id", self.ids, self.ids),
            None if not_number is None else (not_number, "field 'score' must be a number"),
            None if not_finite is None else (not_finite, "field 'score' must be finite"),
            _typed(self.accepts, {bool}, "field 'accept' must be a boolean"),
            _text("status", self.statuses, self.vocabulary),
            _unicode("status", self.statuses, self.vocabulary),
            _duplicate("record", self.ids),
        ]
        return [hit and ((hit[0], 0), hit[1]) for hit in hits]

    def table(self, path: str, lines: list[int]) -> CalibrationTable:
        accepts = np.array(self.accepts, dtype=bool)
        return CalibrationTable(path, tuple(self.ids), np.array(lines), self.flat, accepts, tuple(self.statuses))


def load_calibration_records(path: str | Path) -> list[CalibrationRecord]:
    """Load calibration JSONL as records; duplicate ids are rejected."""
    table = load_calibration_table(path)
    return [table.record(i) for i in range(len(table))]
