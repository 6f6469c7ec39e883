"""Plain-text and CSV writers of the report files: percentages, aligned tables and CSV text.

Every command that writes a report calls them here; ``metrics``
re-exports them as the same objects.  They need no numpy and no
dataclass, so ``simulate threshold-error`` and ``calibrate``, which
compute no rate, load this module and not ``metrics``.
"""

from __future__ import annotations

import csv
import io
from itertools import zip_longest
from typing import Sequence

__all__ = ["format_percent", "rate_with_counts", "aligned_table", "csv_text"]


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


def aligned_table(headers: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table of ``columns``: the first left-aligned, the rest right-aligned.

    Columns shorter than the longest, and missing headers, are padded with
    empty cells.
    """
    n_rows = max(map(len, columns), default=0)
    # a table without cells has one empty column
    headers = [*headers, *[""] * (max(len(columns), 1) - len(headers))]
    table = [
        [header, *column, *[""] * (n_rows - len(column))]
        for header, column in zip_longest(headers, columns, fillvalue=())
    ]
    widths = [max(map(len, map(str, column))) for column in table]
    # then each row in one call, with one field per column: the first left-aligned, the rest
    # right-aligned; padded cells are never held at once, only the finished lines
    template = "  ".join(("%%%ds" if c else "%%-%ds") % width for c, width in enumerate(widths))
    lines = [(template % row).rstrip() for row in zip(*table)]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


_CSV_BLOCK = 1024  # rows that csv_text converts at a time


def _csv_cells(column: Sequence[object], alone: bool) -> list[str]:
    """A column's cells as ``csv.writer`` writes them; ``alone``: the table's only column.

    None becomes '' and anything else its ``str`` (for a float, its
    ``repr``).  A column whose text needs quoting has each cell quoted by
    ``csv`` itself, so the quoting rules stay those of the running Python.
    """
    cells = ["" if cell is None else str(cell) for cell in column]
    text = "".join(cells)
    # csv quotes an empty field only when it is its row's one field
    if any(mark in text for mark in ',"\r\n') or (alone and "" in cells):
        rest = () if alone else ("",)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for i, cell in enumerate(cells):
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((cell, *rest))
            cells[i] = buffer.getvalue()[: -1 - len(rest)]  # cut the rest of the row
    return cells


def csv_text(headers: Sequence[str], columns: Sequence[Sequence[object]]) -> str:
    """CSV text of a header row and equal-length ``columns``, as ``csv.writer`` writes it.

    Absent values (None) are written as ''.
    """
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"columns: must have equal lengths, got {list(map(len, columns))}")
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(headers)
    texts = [header.getvalue()]
    # a block of rows at a time: its cell strings are built, joined and dropped
    for start in range(0, len(columns[0]) if columns else 0, _CSV_BLOCK):
        block = [_csv_cells(column[start:start + _CSV_BLOCK], len(columns) == 1) for column in columns]
        texts.append("\n".join(map(",".join, zip(*block))) + "\n")
    return "".join(texts)
