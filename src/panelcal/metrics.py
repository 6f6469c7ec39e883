"""Corpus-level evaluation measures and plain-text/CSV report emitters.

Rates here are fractions in [0, 1]; the report layer is the only place
that formats them as one-decimal percentages.  Degenerate denominators
produce ``None`` (reported as absent), never a silent 0/0.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import records
from .aggregate import Decision
from .core import ConfusionCounts, ReviewPanel

__all__ = [
    "DetectorMetrics",
    "acpt",
    "icr_per_model",
    "icr_any",
    "conflict_rate",
    "detector_counts",
    "flag_counts",
    "conflict_counts",
    "confusion_counts",
    "detector_metrics",
    "format_percent",
    "rate_with_counts",
    "aligned_table",
    "csv_text",
]


@dataclass(frozen=True)
class DetectorMetrics:
    """Detection rates from a confusion table; absent on empty denominators."""

    tpr: float | None
    fpr: float | None
    accuracy: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("tpr", "fpr"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1] or be None, got {value!r}")
        for name in ("accuracy", "f1"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1], got {value!r}")


def acpt(decisions: Sequence[Decision]) -> float:
    """Fraction of decisions that accepted."""
    if not decisions:
        raise ValueError("decisions: must be non-empty")
    return sum(1 for d in decisions if d.accept) / len(decisions)


def _scope(
    panels: Sequence[ReviewPanel], reviewer_id: str | None, labeled: bool = False
) -> tuple[records.PanelTable, int]:
    """The panels as a table and the index of ``reviewer_id`` (None: ``any``) in its counts;
    raises at the first panel with no label (if ``labeled``) or no review by ``reviewer_id``."""
    if not panels:
        raise ValueError("panels: must be non-empty")
    table = records.PanelTable.from_panels(panels)
    scope = table.roster.index(reviewer_id) if reviewer_id in table.roster else -1
    unlabeled = ~table.labeled & labeled
    unreviewed = ~table.panel_any(table.reviewer == scope) & (reviewer_id is not None)
    for i in np.flatnonzero(unlabeled | unreviewed)[:1].tolist():
        if unlabeled[i]:
            raise ValueError(f"panels: panel {table.ids[i]!r} has no fabrication_label")
        panels[i].review_by(reviewer_id)  # raises its "no review by" error
    return table, scope


def icr_per_model(panels: Sequence[ReviewPanel], reviewer_id: str) -> float:
    """Fraction of panels in which the given reviewer raised a flag."""
    table, scope = _scope(panels, reviewer_id)
    return flag_counts(table)[0][scope] / len(panels)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    """Fraction of panels in which at least one reviewer raised a flag."""
    table, scope = _scope(panels, None)
    return flag_counts(table)[0][scope] / len(panels)


def conflict_rate(
    panels: Sequence[ReviewPanel],
    scores: Mapping[str, float],
    threshold: float,
    reviewer_id: str | None = None,
) -> float | None:
    """Among flagged panels, the fraction still scored at acceptance level.

    Flagging is per-reviewer when ``reviewer_id`` is given, any-reviewer
    otherwise.  Returns None when no panel is flagged (the rate is
    conditional and has no denominator).
    """
    if not panels:
        raise ValueError("panels: must be non-empty")
    if math.isnan(threshold):
        raise ValueError("threshold: must not be NaN")
    table, scope = _scope(panels, reviewer_id)
    flagged = flag_counts(table)[0][scope]
    if not flagged:
        return None
    hit = table.any_flag if scope < 0 else table.panel_any(table.flags & (table.reviewer == scope))
    values = []
    for submission_id, flagged_here in zip(table.ids, hit.tolist()):
        if flagged_here and submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {submission_id!r}")
        values.append(scores[submission_id] if flagged_here else math.nan)  # NaN never accepts
    return conflict_counts(table, np.array(values) >= threshold)[scope] / flagged


def detector_counts(
    panels: Sequence[ReviewPanel],
    reviewer_id: str | None = None,
) -> ConfusionCounts:
    """Confusion counts treating flags as fabrication predictions.

    Truth is each panel's fabrication label; every panel must be labeled.
    """
    table, scope = _scope(panels, reviewer_id, labeled=True)
    return confusion_counts(table)[scope]


def _per_scope(table: records.PanelTable, reviews: np.ndarray, panels: np.ndarray) -> list[int]:
    """Per roster member its reviews ``reviews`` selects, then the panels ``panels`` selects."""
    per_member = np.bincount(table.reviewer[reviews], minlength=len(table.roster))
    return [*per_member.tolist(), int(np.count_nonzero(panels))]


def flag_counts(table: records.PanelTable) -> tuple[list[int], list[int]]:
    """Flagged and reviewed panels, per roster member and then for ``any`` (every panel);
    a validated panel has one review per reviewer, so review counts are panel counts."""
    reviewed = np.bincount(table.reviewer, minlength=len(table.roster))
    return _per_scope(table, table.flags, table.any_flag), [*reviewed.tolist(), len(table)]


def conflict_counts(table: records.PanelTable, accept: np.ndarray) -> list[int]:
    """Flagged panels that ``accept`` (P,) selects, per roster member and then for ``any``."""
    return _per_scope(table, table.flags & accept[table.panel_index], table.any_flag & accept)


def confusion_counts(table: records.PanelTable) -> list[ConfusionCounts]:
    """Flags as predictions of the panels' labels, per roster member and then for ``any``."""
    truth = table.labels[table.panel_index]
    tp = _per_scope(table, table.flags & truth, table.any_flag & table.labels)
    fp = _per_scope(table, table.flags & ~truth, table.any_flag & ~table.labels)
    tn = _per_scope(table, ~table.flags & ~truth, ~table.any_flag & ~table.labels)
    fn = _per_scope(table, ~table.flags & truth, ~table.any_flag & table.labels)
    return [ConfusionCounts(*counts) for counts in zip(tp, fp, tn, fn)]


def detector_metrics(counts: ConfusionCounts) -> DetectorMetrics:
    """TPR, FPR, accuracy, F1 from confusion counts.

    TPR is absent without positives, FPR absent without negatives, and F1
    is 0 when there are no true positives.
    """
    positives = counts.tp + counts.fn
    negatives = counts.fp + counts.tn
    tpr = counts.tp / positives if positives else None
    fpr = counts.fp / negatives if negatives else None
    accuracy = (counts.tp + counts.tn) / counts.total
    if counts.tp == 0:
        f1 = 0.0
    else:
        f1 = 2 * counts.tp / (2 * counts.tp + counts.fp + counts.fn)
    return DetectorMetrics(tpr=tpr, fpr=fpr, accuracy=accuracy, f1=f1)


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


def aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table: first column left-aligned, rest right-aligned."""
    table = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    n_cols = max(len(r) for r in table)
    for r in table:
        r.extend("" for _ in range(n_cols - len(r)))
    widths = [max(len(r[c]) for r in table) for c in range(n_cols)]
    lines = []
    for i, r in enumerate(table):
        cells = [
            r[c].ljust(widths[c]) if c == 0 else r[c].rjust(widths[c])
            for c in range(n_cols)
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def csv_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """CSV serialization with a header row and '' for absent values."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)  # the csv module writes None as ''
    return buffer.getvalue()
