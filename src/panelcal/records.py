"""JSONL record loading for review panels and calibration pools.

One JSON object per line.  Panel lines look like

    {"id": "p1", "label": true,
     "reviews": [{"reviewer": "r1", "rubric": [6, 7], "flag": false,
                  "feedback": "..."}]}

where "label" and "feedback" are optional and a review may carry a
scalar "overall" instead of a "rubric" (it becomes a one-criterion
rubric).  A panel file is parsed once, into a columnar ``PanelTable``;
``load_panel_records`` builds ``PanelRecord`` objects from it.
Calibration lines look like

    {"id": "c1", "score": 6.5, "accept": true, "status": "accept"}

and a pool file is parsed once, into a columnar ``CalibrationTable``;
``load_calibration_records`` builds ``CalibrationRecord`` objects from it.

Malformed input raises RecordError naming the file, line, and field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import CalibrationRecord, RecordError, ReviewPanel, ReviewRecord, RubricSchema, RubricVector

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
    "read_text",
]


@dataclass(frozen=True)
class PanelRecord:
    """One panel line as loaded; reviews may be empty (prior-only rows)."""

    submission_id: str
    reviews: tuple[ReviewRecord, ...]
    fabrication_label: bool | None = None

    def to_panel(self) -> ReviewPanel:
        """Promote to a validated ReviewPanel; requires at least one review."""
        return ReviewPanel(
            submission_id=self.submission_id,
            reviews=self.reviews,
            fabrication_label=self.fabrication_label,
        )


@dataclass(frozen=True, eq=False)
class PanelTable:
    """A panel file as columns: one entry per panel, one row per review.

    The reviews of all panels lie back to back in file order; panel ``i``
    owns review rows ``offsets[i]:offsets[i + 1]``.  ``rubric`` has one
    column per criterion of the longest rubric and is NaN past each
    review's ``criteria`` count.  Reviewers are codes into ``roster``, the
    sorted distinct reviewer ids.  Labels absent from the file are False in
    ``labels`` and False in ``labeled``.
    """

    path: str
    ids: tuple[str, ...]
    lines: np.ndarray  # (P,) line number of each panel
    counts: np.ndarray  # (P,) reviews per panel
    offsets: np.ndarray  # (P + 1,) first review row of each panel, then N
    labels: np.ndarray  # (P,) bool
    labeled: np.ndarray  # (P,) bool
    roster: tuple[str, ...]
    reviewer: np.ndarray  # (N,) roster codes
    rubric: np.ndarray  # (N, K) float
    criteria: np.ndarray  # (N,) rubric length of each review
    flags: np.ndarray  # (N,) bool
    feedback: tuple[str, ...]  # (N,)

    @classmethod
    def from_panels(cls, panels: Sequence[ReviewPanel]) -> PanelTable:
        """The panels as a table without a file."""
        return _panel_columns("", (
            (p.submission_id, line_no, p.fabrication_label,
             [(r.reviewer_id, r.rubric.values, r.integrity_flag, r.feedback) for r in p.reviews])
            for line_no, p in enumerate(panels, start=1)))

    def __len__(self) -> int:
        return len(self.ids)

    @cached_property
    def panel_index(self) -> np.ndarray:
        """(N,) the panel each review belongs to."""
        return np.repeat(np.arange(len(self)), self.counts)

    @cached_property
    def any_flag(self) -> np.ndarray:
        """(P,) whether any review of the panel is flagged."""
        return self.panel_any(self.flags)

    def panel_any(self, reviews: np.ndarray) -> np.ndarray:
        """(P,) whether the panel has a review that the (N,) mask ``reviews`` selects."""
        return np.bincount(self.panel_index[reviews], minlength=len(self)) > 0

    def where(self, i: int) -> str:
        """``path:line`` of panel ``i``, or ``panel 'id'`` for a table built from panels."""
        return f"{self.path}:{self.lines[i]}" if self.path else f"panel {self.ids[i]!r}"

    def error(self, i: int, message: str) -> RecordError:
        return RecordError(f"{self.where(i)}: {message}")

    def require(self, ok: np.ndarray, message: str) -> None:
        """Raise ``path:line: message`` at the first panel where ``ok`` is false.

        ``{id}`` in ``message`` becomes that panel's quoted id.
        """
        bad = np.flatnonzero(~ok)
        if bad.size:
            i = int(bad[0])
            raise self.error(i, message.format(id=repr(self.ids[i])))

    def reviewer_where(self, code: int) -> str:
        """``path:line`` of the first panel reviewed by roster member ``code``."""
        return self.where(int(self.panel_index[np.argmax(self.reviewer == code)]))

    def record(self, i: int) -> PanelRecord:
        """Panel ``i`` as a ``PanelRecord``."""
        rows = range(self.offsets[i], self.offsets[i + 1])
        reviews = tuple(
            ReviewRecord(
                self.roster[self.reviewer[j]],
                RubricVector(tuple(self.rubric[j, : self.criteria[j]].tolist())),
                bool(self.flags[j]),
                self.feedback[j],
            )
            for j in rows
        )
        label = bool(self.labels[i]) if self.labeled[i] else None
        return PanelRecord(self.ids[i], reviews, label)

    def validate(
        self,
        schema: RubricSchema | None = None,
        *,
        require_reviews: bool = True,
        require_labels: bool = False,
    ) -> None:
        """Check every panel as ``ReviewPanel`` and ``validate_schema`` check one.

        Panels without reviews fail when ``require_reviews`` is set and are
        skipped otherwise.  The checks run on the columns; the first failing
        panel is then rebuilt as an object, whose own error is raised with
        the panel's ``path:line`` in front.
        """
        if require_reviews:
            self.require(self.counts > 0, "panel {id} has no reviews")
        panel_of = self.panel_index
        key = panel_of * len(self.roster) + self.reviewer
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(len(key), dtype=bool)
        repeated[order[1:][key[order][1:] == key[order][:-1]]] = True
        ragged = self.criteria != self.criteria[self.offsets[panel_of]]
        self._raise_first(repeated | ragged, lambda panel: None)
        if schema is not None:
            k = schema.criteria_count
            fits = self.criteria == k
            if self.rubric.shape[1] >= k:
                lo, hi = np.array(schema.bounds).T
                values = self.rubric[:, :k]
                fits &= ((values >= lo) & (values <= hi)).all(axis=1)
            else:
                fits[:] = False
            self._raise_first(~fits, lambda panel: panel.validate_schema(schema))
        if require_labels:
            self.require(self.labeled, "panel {id} has no fabrication_label")

    def _raise_first(self, bad_reviews: np.ndarray, check: Callable[[ReviewPanel], None]) -> None:
        bad = np.flatnonzero(bad_reviews)
        if not bad.size:
            return
        i = int(self.panel_index[bad[0]])
        try:
            check(self.record(i).to_panel())
        except ValueError as exc:
            raise self.error(i, str(exc)) from None
        raise AssertionError(f"{self.where(i)}: column check and object check disagree")


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """A calibration pool as columns, one entry per record in file order.

    A table built from records rather than read from a file has an empty
    ``path``; its records are then named by their ids.
    """

    path: str
    ids: tuple[str, ...]
    lines: np.ndarray  # (N,) line number of each record
    scores: np.ndarray  # (N,) float
    accepts: np.ndarray  # (N,) bool
    statuses: tuple[str, ...]

    @classmethod
    def from_records(cls, records: Sequence[CalibrationRecord]) -> CalibrationTable:
        """The records as a table without a file."""
        return cls(
            path="",
            ids=tuple(r.submission_id for r in records),
            lines=np.arange(1, len(records) + 1),
            scores=np.array([r.agent_score for r in records], dtype=float),
            accepts=np.array([r.human_accept for r in records], dtype=bool),
            statuses=tuple(r.status for r in records),
        )

    def __len__(self) -> int:
        return len(self.ids)

    def where(self, i: int) -> str:
        """``path:line`` of record ``i``, or ``record 'id'`` without a file."""
        if not self.path:
            return f"record {self.ids[i]!r}"
        return f"{self.path}:{self.lines[i]}"

    def record(self, i: int) -> CalibrationRecord:
        """Record ``i`` as a ``CalibrationRecord``."""
        return CalibrationRecord(
            self.ids[i], float(self.scores[i]), bool(self.accepts[i]), self.statuses[i]
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> CalibrationTable:
        """The records at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        return CalibrationTable(
            path=self.path,
            ids=tuple(self.ids[i] for i in rows),
            lines=self.lines[idx],
            scores=self.scores[idx],
            accepts=self.accepts[idx],
            statuses=tuple(self.statuses[i] for i in rows),
        )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers check the totals
def left_sums(values: np.ndarray, counts: np.ndarray, start: float = 0.0) -> np.ndarray:
    """(P,) ``start`` plus each of P groups of ``values``, ``counts`` long, added left to right.

    This is the order of ``core.left_sum``, which ``ReviewerWeights`` and
    ``aggregate.gls_weights`` use; ``np.add.reduceat`` and, from Python
    3.12, builtin ``sum`` add in another order.
    """
    starts = np.cumsum(counts) - counts
    total = np.full(len(counts), start, dtype=float)
    for j in range(int(counts.max(initial=0))):
        groups = np.flatnonzero(counts > j)
        total[groups] += values[starts[groups] + j]
    return total


def _context(path: str | Path, line_no: int, message: str) -> RecordError:
    return RecordError(f"{path}:{line_no}: {message}")


def _get_str(obj: Mapping[str, Any], key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    return value


def _get_bool(obj: Mapping[str, Any], key: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _get_number(obj: Mapping[str, Any], key: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} must be finite")
    return value


def _all_finite(values: list[Any] | tuple[Any, ...]) -> bool:
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an integer beyond the float range
        return False


_NUMBER_TYPES = {int, float}  # JSON numbers; bool is not among them


def _review_fields(obj: Any) -> tuple[str, list[Any], bool, str]:
    """Reviewer, rubric values, flag and feedback of one review object.

    Checks what ``ReviewRecord`` and ``RubricVector`` check, with their
    messages; an ``overall`` number becomes a one-criterion rubric.
    """
    if not isinstance(obj, dict):
        raise ValueError("each review must be a JSON object")
    reviewer = _get_str(obj, "reviewer")
    if "rubric" in obj:
        values = obj["rubric"]
        if not isinstance(values, list) or not values:
            raise ValueError("field 'rubric' must be a non-empty array of numbers")
        if not set(map(type, values)) <= _NUMBER_TYPES:
            k = next(k for k, v in enumerate(values) if type(v) not in _NUMBER_TYPES)
            raise ValueError(f"field 'rubric[{k}]' must be a number")
        if not _all_finite(values):
            k = next(k for k, v in enumerate(values) if not _all_finite((v,)))
            raise ValueError(f"values[{k}]: must be finite, got {values[k]!r}")
    elif "overall" in obj:
        values = [_get_number(obj, "overall")]
    else:
        raise ValueError("each review needs a 'rubric' array or an 'overall' number")
    flag = _get_bool(obj, "flag")
    feedback = obj.get("feedback", "")
    if not isinstance(feedback, str):
        raise ValueError("field 'feedback' must be a string")
    return reviewer, values, flag, feedback


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file; an unreadable path raises RecordError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RecordError(f"{path}: cannot read: {exc.strerror}") from exc


_raw_decode = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def _iter_json_lines(path: str | Path):
    """(line number, value) of each non-blank line, as ``json.loads`` parses it.

    One ``raw_decode`` of the line stripped of JSON whitespace gives the
    value; ``json.loads`` runs only when that fails, to word the error.
    """
    text = read_text(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        value = line.strip(_JSON_SPACE)
        if not value or value.isspace():
            continue
        try:
            obj, end = _raw_decode(value)
        except json.JSONDecodeError:
            end = -1
        if end != len(value):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _context(path, line_no, f"invalid JSON: {exc.msg}") from exc
        yield line_no, obj


def load_panel_table(path: str | Path) -> PanelTable:
    """Parse panel JSONL into a PanelTable; duplicate panel ids are rejected.

    Only the per-line checks run here; ``PanelTable.validate`` checks the
    panels as a whole.
    """
    table = _panel_columns(str(path), _panel_lines(path))
    if not len(table):
        raise RecordError(f"{path}: no records found")
    return table


def _panel_lines(path: str | Path):
    """(id, line number, label, review fields) of each panel line, checked line by line."""
    seen: set[str] = set()
    for line_no, obj in _iter_json_lines(path):
        try:
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            submission_id = _get_str(obj, "id")
            label = obj.get("label")
            if label is not None and not isinstance(label, bool):
                raise ValueError("field 'label' must be a boolean or null")
            reviews = obj.get("reviews")
            if not isinstance(reviews, list):
                raise ValueError("field 'reviews' must be an array")
            fields = []
            for i, raw in enumerate(reviews):
                try:
                    fields.append(_review_fields(raw))
                except ValueError as exc:
                    raise ValueError(f"reviews[{i}]: {exc}") from exc
        except ValueError as exc:
            raise _context(path, line_no, str(exc)) from exc
        if submission_id in seen:
            raise _context(path, line_no, f"duplicate panel id {submission_id!r}")
        seen.add(submission_id)
        yield submission_id, line_no, label, fields


def _panel_columns(path: str, panels: Iterable[tuple[str, int, Any, list[tuple]]]) -> PanelTable:
    """The table of (id, line number, label, [(reviewer, rubric, flag, feedback)]) panels."""
    ids, lines, counts, labels = [], [], [], []  # one entry per panel
    reviewer, values, criteria, flags, feedback = [], [], [], [], []  # per review
    codes: dict[str, int] = {}  # reviewer id -> code in order of first appearance
    for submission_id, line_no, label, reviews in panels:
        ids.append(submission_id)
        lines.append(line_no)
        counts.append(len(reviews))
        labels.append(label)
        for name, row, flag, text in reviews:
            reviewer.append(codes.setdefault(name, len(codes)))
            values.extend(row)
            criteria.append(len(row))
            flags.append(flag)
            feedback.append(text)
    roster = sorted(codes)
    rank = np.empty(len(roster), dtype=np.intp)
    rank[[codes[name] for name in roster]] = np.arange(len(roster))
    widths = np.array(criteria, dtype=np.intp)
    width = int(widths.max(initial=0))
    flat = np.array(values, dtype=float)
    if (widths == width).all():
        rubric = flat.reshape(len(widths), width)
    else:
        rubric = np.full((len(widths), width), np.nan)
        rubric[np.arange(width) < widths[:, None]] = flat
    count_array = np.array(counts, dtype=np.intp)
    return PanelTable(
        path=path,
        ids=tuple(ids),
        lines=np.array(lines),
        counts=count_array,
        offsets=np.concatenate(([0], np.cumsum(count_array))),
        labels=np.array([label is True for label in labels]),
        labeled=np.array([label is not None for label in labels]),
        roster=tuple(roster),
        reviewer=rank[np.array(reviewer, dtype=np.intp)],
        rubric=rubric,
        criteria=widths,
        flags=np.array(flags, dtype=bool),
        feedback=tuple(feedback),
    )


def load_panel_records(path: str | Path) -> list[PanelRecord]:
    """Load panel JSONL as records; duplicate panel ids are rejected."""
    table = load_panel_table(path)
    return [table.record(i) for i in range(len(table))]


def _all_strings(values: list[Any]) -> bool:
    """Whether every value is a non-empty string."""
    return set(map(type, values)) <= {str} and all(values)


def _first_line_error(
    path: str | Path, lines: list[int], ids: list[Any], scores: list[Any],
    accepts: list[Any], statuses: list[Any],
) -> RecordError:
    """The per-line checks of a pool's fields, line by line; the first failure."""
    seen: set[str] = set()
    for line_no, submission_id, score, accept, status in zip(lines, ids, scores, accepts, statuses):
        obj = {"id": submission_id, "score": score, "accept": accept, "status": status}
        try:
            _get_str(obj, "id")
            _get_number(obj, "score")
            _get_bool(obj, "accept")
            _get_str(obj, "status")
        except ValueError as exc:
            return _context(path, line_no, str(exc))
        if submission_id in seen:
            return _context(path, line_no, f"duplicate record id {submission_id!r}")
        seen.add(submission_id)
    raise AssertionError(f"{path}: column check and line check disagree")


def load_calibration_table(path: str | Path) -> CalibrationTable:
    """Parse calibration JSONL into a CalibrationTable; duplicate ids are rejected.

    Each line's fields go into columns, and the checks run on whole
    columns.  When one fails, the per-line checks run over the lines in
    order to raise the first error, worded as they word it.
    """
    lines: list[int] = []
    ids: list[Any] = []
    scores: list[Any] = []
    accepts: list[Any] = []
    statuses: list[Any] = []
    stop: RecordError | None = None  # a line with no fields: raised after the lines before it
    try:
        for line_no, obj in _iter_json_lines(path):
            if not isinstance(obj, dict):
                stop = _context(path, line_no, "each line must be a JSON object")
                break
            lines.append(line_no)
            ids.append(obj.get("id"))
            scores.append(obj.get("score"))
            accepts.append(obj.get("accept"))
            statuses.append(obj.get("status"))
    except RecordError as exc:
        stop = exc

    ok = (
        _all_strings(ids)
        and _all_strings(statuses)
        and set(map(type, accepts)) <= {bool}
        and set(map(type, scores)) <= _NUMBER_TYPES
        and len(set(ids)) == len(ids)
    )
    if ok:
        try:
            score_array = np.array(scores, dtype=float)
        except OverflowError:  # an integer beyond the float range
            ok = False
        else:
            ok = bool(np.isfinite(score_array).all())
    if not ok:
        raise _first_line_error(path, lines, ids, scores, accepts, statuses)
    if stop is not None:
        raise stop
    if not ids:
        raise RecordError(f"{path}: no records found")
    return CalibrationTable(
        path=str(path),
        ids=tuple(ids),
        lines=np.array(lines),
        scores=score_array,
        accepts=np.array(accepts, dtype=bool),
        statuses=tuple(statuses),
    )


def load_calibration_records(path: str | Path) -> list[CalibrationRecord]:
    """Load calibration JSONL as records; duplicate ids are rejected."""
    table = load_calibration_table(path)
    return [table.record(i) for i in range(len(table))]


def load_config(path: str | Path) -> dict[str, Any]:
    """Load a JSON config or thresholds file; the top level must be an object."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise RecordError(f"{path}: top level must be a JSON object")
    return data
