"""The column tables: a panel file and a calibration pool as arrays.

``records`` parses JSONL into these tables and exports them, but the code
that only works on columns (``calibrate``, ``metrics``, the commands)
imports them from here, so a command loads no JSONL loader on a cache
hit, and neither does a table built from record objects
(``PanelTable.from_panels``).  ``simulate threshold-error``, which reads
no file, loads no table at all.  ``left_sums`` adds the values of a
group of rows in the order of ``weights.left_sum``.

Every string column, in a table (ids, feedback, statuses, the roster)
or written by ``writers``, is a ``Strings``: its length is known at once,
a subset of its rows is taken by code, a column read from the column
cache is split on first read, and only the cache joins one.  Of a
table's, ``review`` and ``bayes`` write the ids, ``calibrate`` reads only
the distinct statuses, to stratify, and the panel commands read the
roster; only the record objects read the feedback.  Each table takes its
length from its ``lines`` column.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .rules import RecordError

if TYPE_CHECKING:
    from .core import RubricSchema
    from .objects import CalibrationRecord, PanelRecord, ReviewPanel

__all__ = ["PanelTable", "CalibrationTable", "Strings", "left_sums"]


_PROBE = 256  # a column that repeats a string within its first _PROBE entries is held with codes


class Strings(Sequence[str]):
    """A per-row string column: ``n_strings`` distinct strings and, with ``codes``, a code per row into them.

    A column holds either its strings or their text, joined with a character none of them holds, whichever it
    was built from, and derives the other the first time it is needed: the strings on the first read of
    ``strings`` or of a row, the text on the first ``joined``, which only the column cache calls.  ``len`` and
    ``take`` need neither, and every row's string is built on the first read of a row.
    """

    __slots__ = ("n_strings", "codes", "_strings", "_text", "_sep", "_rows")

    def __init__(self, strings: Sequence[str], codes: np.ndarray | None = None) -> None:
        """Row ``i`` holds ``strings[codes[i]]``, or ``strings[i]`` without codes; codes of any integer or bool
        dtype index by position."""
        self._strings = tuple(strings)
        self.n_strings, self.codes, self._text, self._sep, self._rows = len(self._strings), codes, None, None, None

    @classmethod
    def of(cls, column: Sequence[str]) -> Strings:
        """``column`` encoded: a column that repeats a string within its first ``_PROBE`` entries (statuses,
        feedback) as its distinct strings, in order of first appearance, and codes, so that equal rows read as one
        string, and any other (ids) string by string, with no pass to find its distinct strings."""
        head = column[:_PROBE]
        if len(set(head)) == len(head):
            return cls(column)
        strings = tuple(dict.fromkeys(column))
        code = {s: k for k, s in enumerate(strings)}
        return cls(strings, np.fromiter(map(code.__getitem__, column), np.uint32, len(column)))

    @classmethod
    def split(cls, text: str, sep: str, n_strings: int, codes: np.ndarray | None = None) -> Strings:
        """The column of the ``n_strings`` strings that ``text`` joins with ``sep`` (``joined``), split on first
        read."""
        column = cls((), codes)
        column._strings, column._text, column._sep, column.n_strings = None, text, sep, n_strings
        return column

    @property
    def strings(self) -> tuple[str, ...]:
        """The distinct strings: row ``i`` holds ``strings[codes[i]]``, or ``strings[i]`` without codes."""
        if self._strings is None:
            self._strings = tuple(self._text.split(self._sep)) if self.n_strings else ()
        return self._strings

    def joined(self) -> tuple[str, str]:
        """``(text, sep)``: the strings joined with a line feed, or, when one holds a line feed or there are
        none, with the first character that none holds."""
        if self._text is None:
            strings, sep = self._strings, "\n"
            text = sep.join(strings)
            if text.count(sep) != len(strings) - 1:
                held = set("".join(strings))
                sep = next(c for c in map(chr, range(sys.maxunicode + 1)) if c not in held)
                text = sep.join(strings)
            self._text, self._sep = text, sep
        return self._text, self._sep

    def take(self, rows: np.ndarray) -> Strings:
        """The rows at ``rows``, an index array, in that order: the strings or text are shared, and only codes
        are taken."""
        codes = np.arange(self.n_strings, dtype=np.uint32) if self.codes is None else self.codes
        taken = Strings.split(self._text, self._sep, self.n_strings, codes[rows])
        taken._strings = self._strings
        return taken

    def __len__(self) -> int:
        return self.n_strings if self.codes is None else len(self.codes)

    def __getitem__(self, index: int | slice) -> str | tuple[str, ...]:
        return self._column()[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._column())

    def _column(self) -> tuple[str, ...]:
        """Each row's string, built on the first call; equal rows are one object."""
        if self._rows is None:
            strings = self.strings
            self._rows = strings if self.codes is None else tuple(map(strings.__getitem__, self.codes.tolist()))
        return self._rows


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
    ids: Strings
    lines: np.ndarray  # (P,) line number of each panel
    counts: np.ndarray  # (P,) reviews per panel
    offsets: np.ndarray  # (P + 1,) first review row of each panel, then N
    labels: np.ndarray  # (P,) bool
    labeled: np.ndarray  # (P,) bool
    roster: Strings
    reviewer: np.ndarray  # (N,) roster codes
    rubric: np.ndarray  # (N, K) float
    criteria: np.ndarray  # (N,) rubric length of each review
    flags: np.ndarray  # (N,) bool
    feedback: Strings  # (N,)

    @classmethod
    def from_columns(
        cls, path: str, ids: list[str], lines: list[int], counts: list[int], labels: list[bool | None],
        reviewer: list[str], values: np.ndarray, criteria: list[int], flags: list[bool],
        feedback: list[str],
    ) -> PanelTable:
        """The table of checked columns, per panel and then per review, as the panel loader builds it.

        ``values`` holds the rubrics back to back, ``criteria`` their lengths.
        """
        roster = sorted(set(reviewer))
        code = {name: k for k, name in enumerate(roster)}
        widths = np.array(criteria, dtype=np.intp)
        width = int(widths.max(initial=0))
        if (widths == width).all():
            rubric = values.reshape(len(widths), width)
        else:
            rubric = np.full((len(widths), width), np.nan)
            rubric[np.arange(width) < widths[:, None]] = values
        count_array = np.array(counts, dtype=np.intp)
        return cls(
            path=path,
            ids=Strings.of(ids),
            lines=np.array(lines),
            counts=count_array,
            offsets=np.concatenate(([0], np.cumsum(count_array))),
            labels=np.array([label is True for label in labels]),
            labeled=np.array([label is not None for label in labels]),
            roster=Strings(roster),
            reviewer=np.array(list(map(code.__getitem__, reviewer)), dtype=np.intp),
            rubric=rubric,
            criteria=widths,
            flags=np.array(flags, dtype=bool),
            feedback=Strings.of(feedback),
        )

    @classmethod
    def from_panels(cls, panels: Sequence[ReviewPanel]) -> PanelTable:
        """The panels as a table without a file (``from_columns``)."""
        reviews = [r for p in panels for r in p.reviews]
        rubrics = [r.rubric.values for r in reviews]
        return cls.from_columns(
            "",
            ids=[p.submission_id for p in panels],
            lines=list(range(1, len(panels) + 1)),
            counts=[len(p.reviews) for p in panels],
            labels=[p.fabrication_label for p in panels],
            reviewer=[r.reviewer_id for r in reviews],
            values=np.array([v for row in rubrics for v in row], dtype=float),
            criteria=list(map(len, rubrics)),
            flags=[r.integrity_flag for r in reviews],
            feedback=[r.feedback for r in reviews],
        )

    def __len__(self) -> int:
        return len(self.lines)

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
        from .objects import PanelRecord, ReviewRecord, RubricVector

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

        The rules run in turn, each over all panels: reviews present (when
        ``require_reviews``; panels without reviews are skipped otherwise),
        distinct reviewers with rubrics of one length, the schema, labels
        present (when ``require_labels``).  The first panel that breaks a
        rule raises the object check's message with its ``path:line`` in
        front.
        """
        if require_reviews:
            self.require(self.counts > 0, "panel {id} has no reviews")
        panel_of = self.panel_index
        key = panel_of * len(self.roster) + self.reviewer
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(len(key), dtype=bool)
        repeated[order[1:][key[order][1:] == key[order][:-1]]] = True
        first = self.offsets[panel_of]  # (N,) the first review row of each review's panel
        bad = np.flatnonzero(repeated | (self.criteria != self.criteria[first]))
        if bad.size:
            j = int(bad[0])
            i, start = int(panel_of[j]), int(first[j])
            # ReviewPanel looks for a repeated reviewer in the whole panel first
            dup = np.flatnonzero(repeated[start : self.offsets[i + 1]])
            if dup.size:
                raise self.error(i, f"reviews: duplicate reviewer_id {self._name(start + int(dup[0]))!r}")
            raise self.error(i, (
                f"reviews: rubric length mismatch: {self._name(j)!r} has "
                f"{int(self.criteria[j])}, expected {int(self.criteria[start])}"
            ))
        if schema is not None:
            k = schema.criteria_count
            fits = self.criteria == k
            if self.rubric.shape[1] >= k:  # else no review has k criteria
                lo, hi = np.array(schema.bounds).T
                inside = (self.rubric[:, :k] >= lo) & (self.rubric[:, :k] <= hi)
                fits &= inside.all(axis=1)
            bad = np.flatnonzero(~fits)
            if bad.size:
                j = int(bad[0])
                if self.criteria[j] != k:
                    message = f"values: expected {k} criteria, got {int(self.criteria[j])}"
                else:
                    c = int(np.argmin(inside[j]))
                    low, high = schema.bounds[c]
                    message = f"values[{c}]: score {float(self.rubric[j, c])} outside bounds [{low}, {high}]"
                i = int(panel_of[j])
                raise self.error(i, f"panel {self.ids[i]!r}, reviewer {self._name(j)!r}: {message}")
        if require_labels:
            self.require(self.labeled, "panel {id} has no fabrication_label")

    def _name(self, j: int) -> str:
        """The reviewer id of review row ``j``."""
        return self.roster[self.reviewer[j]]


@dataclass(frozen=True, eq=False)
class CalibrationTable:
    """A calibration pool as columns, one entry per record in file order.

    A table built from records rather than read from a file has an empty
    ``path``; its records are then named by their ids.
    """

    path: str
    ids: Strings
    lines: np.ndarray  # (N,) line number of each record
    scores: np.ndarray  # (N,) float
    accepts: np.ndarray  # (N,) bool
    statuses: Strings

    @classmethod
    def from_records(cls, records: Sequence[CalibrationRecord]) -> CalibrationTable:
        """The records as a table without a file."""
        return cls(
            path="",
            ids=Strings.of([r.submission_id for r in records]),
            lines=np.arange(1, len(records) + 1),
            scores=np.array([r.agent_score for r in records], dtype=float),
            accepts=np.array([r.human_accept for r in records], dtype=bool),
            statuses=Strings.of([r.status for r in records]),
        )

    def __len__(self) -> int:
        return len(self.lines)

    def where(self, i: int) -> str:
        """``path:line`` of record ``i``, or ``record 'id'`` without a file."""
        if not self.path:
            return f"record {self.ids[i]!r}"
        return f"{self.path}:{self.lines[i]}"

    def record(self, i: int) -> CalibrationRecord:
        """Record ``i`` as a ``CalibrationRecord``."""
        from .objects import CalibrationRecord

        return CalibrationRecord(
            self.ids[i], float(self.scores[i]), bool(self.accepts[i]), self.statuses[i]
        )

    def take(self, indices: Sequence[int] | np.ndarray) -> CalibrationTable:
        """The records at ``indices``, in that order."""
        idx = np.asarray(indices, dtype=np.intp)
        return CalibrationTable(self.path, self.ids.take(idx), self.lines[idx], self.scores[idx], self.accepts[idx],
                                self.statuses.take(idx))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers check the totals
def left_sums(values: np.ndarray, counts: np.ndarray, start: float = 0.0) -> np.ndarray:
    """(P,) ``start`` plus each of P groups of ``values``, ``counts`` long, added left to right.

    This is the order of ``weights.left_sum``, which ``ReviewerWeights`` and
    ``objects.gls_weights`` use; ``np.add.reduceat`` and, from Python
    3.12, builtin ``sum`` add in another order.
    """
    starts = np.cumsum(counts) - counts
    total = np.full(len(counts), start, dtype=float)
    for j in range(int(counts.max(initial=0))):
        groups = np.flatnonzero(counts > j)
        total[groups] += values[starts[groups] + j]
    return total
