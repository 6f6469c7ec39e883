"""Corpus-level evaluation measures.

Rates here are fractions in [0, 1]; the report writers, defined in
``panelcal.writers`` and re-exported here, are the only place that
formats them as one-decimal percentages.  Degenerate denominators
produce ``None`` (reported as absent), never a silent 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .rules import _fail, finite, integer, not_nan, sequence, unit
from .tables import PanelTable
from .writers import aligned_table, csv_text, format_percent, rate_with_counts

if TYPE_CHECKING:
    from .aggregate import Decision
    from .objects import ReviewPanel

__all__ = [
    "ConfusionCounts",
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
class ConfusionCounts:
    """Binary-detection outcome counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 0))
        if self.total < 1:
            _fail("tp", "counts must sum to at least 1")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class DetectorMetrics:
    """Detection rates from a confusion table; absent on empty denominators."""

    tpr: float | None
    fpr: float | None
    accuracy: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("tpr", "fpr", "accuracy", "f1"):
            if getattr(self, name) is not None or name in ("accuracy", "f1"):  # tpr and fpr may be absent
                object.__setattr__(self, name, unit(name, getattr(self, name)))


def acpt(decisions: Sequence[Decision]) -> float:
    """Fraction of decisions that accepted."""
    decisions = sequence("decisions", decisions, "decisions", non_empty=True)
    return sum(1 for d in decisions if d.accept) / len(decisions)


def _scope(
    panels: Sequence[ReviewPanel], reviewer_id: str | None, labeled: bool = False
) -> tuple[PanelTable, int]:
    """The panels as a table and the index of ``reviewer_id`` (None: ``any``) in its counts;
    raises at the first panel with no label (if ``labeled``) or no review by ``reviewer_id``."""
    panels = sequence("panels", panels, "panels", non_empty=True)
    table = PanelTable.from_panels(panels)
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
    return flag_counts(table)[0][scope] / len(table)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    """Fraction of panels in which at least one reviewer raised a flag."""
    table, scope = _scope(panels, None)
    return flag_counts(table)[0][scope] / len(table)


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
    panels = sequence("panels", panels, "panels", non_empty=True)  # the panels are refused before the threshold
    threshold = not_nan("threshold", threshold)
    table, scope = _scope(panels, reviewer_id)
    flagged = flag_counts(table)[0][scope]
    if not flagged:
        return None
    hit = table.any_flag if scope < 0 else table.panel_any(table.flags & (table.reviewer == scope))
    values = []
    for submission_id, flagged_here in zip(table.ids, hit.tolist()):
        if flagged_here and submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {submission_id!r}")
        values.append(finite(f"scores[{submission_id!r}]", scores[submission_id]) if flagged_here
                      else math.nan)  # NaN never accepts
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


def _per_scope(table: PanelTable, reviews: np.ndarray, panels: np.ndarray) -> list[int]:
    """Per roster member its reviews ``reviews`` selects, then the panels ``panels`` selects."""
    per_member = np.bincount(table.reviewer[reviews], minlength=len(table.roster))
    return [*per_member.tolist(), int(np.count_nonzero(panels))]


def flag_counts(table: PanelTable) -> tuple[list[int], list[int]]:
    """Flagged and reviewed panels, per roster member and then for ``any`` (every panel);
    a validated panel has one review per reviewer, so review counts are panel counts."""
    reviewed = np.bincount(table.reviewer, minlength=len(table.roster))
    return _per_scope(table, table.flags, table.any_flag), [*reviewed.tolist(), len(table)]


def conflict_counts(table: PanelTable, accept: np.ndarray) -> list[int]:
    """Flagged panels that ``accept`` (P,) selects, per roster member and then for ``any``."""
    return _per_scope(table, table.flags & accept[table.panel_index], table.any_flag & accept)


def confusion_counts(table: PanelTable) -> list[ConfusionCounts]:
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
