"""Plain-text and CSV writers of the report files: percentages, aligned tables and CSV text.

Every command that writes a report calls them here; ``metrics``
re-exports them as the same objects.  They need no dataclass, so
``simulate threshold-error``, ``calibrate`` and ``bayes``, which compute
no rate, load this module and not ``metrics``.

A column is a list (or tuple) of values, or a typed one: a numpy float,
integer or bool array, or a ``tables.Strings``.  A list column's cells
are converted one by one (a ``str`` stays as it is); a ``Strings`` is
read by its own strings and codes.  A float array is written by ``repr``
and an integer array by ``str``, each once per distinct value (for
floats, per distinct bit pattern, so ``-0.0`` and ``0.0`` keep their own
texts), and a bool array as ``True``/``False``; ``texts`` gives such an
array's texts as a ``Strings``, in any format.  The writers then work on
each column's distinct strings: the CSV writer checks and quotes each
once, and a report column is as wide as the longest string its rows use.
"""

from __future__ import annotations

import csv
import io
from itertools import compress, repeat, zip_longest
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .tables import Strings

__all__ = ["format_percent", "rate_with_counts", "aligned_table", "csv_text", "texts"]


def format_percent(value: float | None) -> str:
    """One-decimal percent, or '-' for an absent rate."""
    if value is None:
        return "-"
    return f"{100.0 * value:.1f}%"


def rate_with_counts(numerator: int, denominator: int) -> str:
    """Percent with the raw counts beside it, e.g. '66.7% (2/3)'."""
    if denominator == 0:
        return f"- ({numerator}/0)"
    return f"{format_percent(numerator / denominator)} ({numerator}/{denominator})"


def _distinct(values: Any) -> tuple[list, np.ndarray]:
    """The distinct values of a numpy number array, as Python numbers, and each row's code into them.

    Floats are told apart by their bit patterns, so ``-0.0`` and ``0.0``
    (and NaNs of other payloads) stay apart.
    """
    values = np.asarray(values)
    if values.dtype.kind == "f":
        keys, codes = np.unique(np.ascontiguousarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
        return keys.view(np.float64).tolist(), codes
    keys, codes = np.unique(values, return_inverse=True)
    return keys.tolist(), codes


def texts(values: Any, *formats: Callable[[Any], str]) -> list[Strings]:
    """``values``, a numpy number array, as a ``tables.Strings`` in each of ``formats``, from one ``unique``.

    Each format turns one Python number into its text (``repr``,
    ``"{:.4f}".format``) and runs once per distinct value (``_distinct``).
    """
    from .tables import Strings  # here: the commands that write no such column load no tables

    distinct, codes = _distinct(values)
    return [Strings(list(map(fmt, distinct)), codes) for fmt in formats]


def _strings(column: Sequence[object], none: str) -> tuple[list[str], np.ndarray | None]:
    """``column``'s strings and codes: row ``i`` holds ``strings[codes[i]]``, or ``strings[i]`` when codes is None.

    A list column's cells are its strings, ``none`` standing for None.
    """
    kind = getattr(getattr(column, "dtype", None), "kind", None)
    if kind == "b":
        return ["False", "True"], column.astype(np.intp)
    if kind in ("f", "i", "u"):
        distinct, codes = _distinct(column)
        return list(map(repr if kind == "f" else str, distinct)), codes
    if hasattr(column, "codes"):  # a tables.Strings: its codes as intp, an index, never a mask
        codes = column.codes
        return list(column.strings), None if codes is None else codes.astype(np.intp, copy=False)
    if set(map(type, column)) <= {str}:
        return list(column), None
    return [none if cell is None else str(cell) for cell in column], None


def _rows(strings: list[str], codes: np.ndarray | None) -> list[str]:
    """Each row's string: ``strings`` taken by ``codes`` in one object-array take."""
    if codes is None:
        return strings
    table = np.empty(len(strings), dtype=object)
    table[:] = strings
    return table[codes].tolist()


def _used(strings: list[str], codes: np.ndarray | None) -> Iterable[str]:
    """The strings that some row holds: a ``Strings`` may hold one that none takes."""
    if codes is None:
        return strings
    return compress(strings, np.bincount(codes, minlength=len(strings)).tolist())


def aligned_table(headers: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table of ``columns``: the first left-aligned, the rest right-aligned.

    Columns shorter than the longest, and missing headers, are padded with
    empty cells.  A None cell of a list column reads ``None``.  Each
    distinct string is padded once.
    """
    n_rows = max(map(len, columns), default=0)
    # a table without cells has one empty column
    headers = [*map(str, headers), *[""] * (max(len(columns), 1) - len(headers))]
    head, widths, body = [], [], []
    for c, (header, column) in enumerate(zip_longest(headers, columns, fillvalue=())):
        strings, codes = _strings(column, "None")
        pad = str.rjust if c else str.ljust
        width = max([len(header), *map(len, _used(strings, codes))])
        cells = _rows(list(map(pad, strings, repeat(width))), codes)
        cells.extend([" " * width] * (n_rows - len(cells)))
        head.append(pad(header, width))
        widths.append(width)
        body.append(cells)
    lines = ["  ".join(head).rstrip(), "  ".join("-" * width for width in widths)]
    lines.extend(map(str.rstrip, map("  ".join, zip(*body))))
    return "\n".join(lines) + "\n"


def _quoted(strings: list[str], alone: bool) -> list[str]:
    """``strings`` as ``csv.writer`` writes them as cells; ``alone``: the table's only column.

    When any needs quoting, each is quoted by ``csv`` itself, so the
    quoting rules stay those of the running Python.  A typed column's
    distinct strings are checked, and quoted, once each.
    """
    # csv quotes an empty field only when it is its row's one field
    if not (any(mark in "".join(strings) for mark in ',"\r\n') or (alone and "" in strings)):
        return strings
    rest = () if alone else ("",)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quoted = []
    for cell in strings:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((cell, *rest))
        quoted.append(buffer.getvalue()[: -1 - len(rest)])  # cut the rest of the row
    return quoted


_CSV_BLOCK = 2048  # rows joined at a time, so no more than a block's row strings are held at once


def csv_text(headers: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """CSV text of a header row and equal-length ``columns``, as ``csv.writer`` writes it.

    Absent values (None) of a list column are written as ''.
    """
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"columns: must have equal lengths, got {list(map(len, columns))}")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(headers)
    alone = len(columns) == 1
    cells = [_rows(_quoted(strings, alone), codes) for strings, codes in map(_strings, columns, repeat(""))]
    blocks = [
        "\n".join(map(",".join, zip(*(column[start:start + _CSV_BLOCK] for column in cells)))) + "\n"
        for start in range(0, len(cells[0]) if cells else 0, _CSV_BLOCK)
    ]
    return header.getvalue() + "".join(blocks)
