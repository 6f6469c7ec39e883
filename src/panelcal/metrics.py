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

from .aggregate import Decision
from .core import ConfusionCounts, ReviewPanel

__all__ = [
    "DetectorMetrics",
    "acpt",
    "icr_per_model",
    "icr_any",
    "conflict_rate",
    "detector_counts",
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


def icr_per_model(panels: Sequence[ReviewPanel], reviewer_id: str) -> float:
    """Fraction of panels in which the given reviewer raised a flag."""
    if not panels:
        raise ValueError("panels: must be non-empty")
    flagged = 0
    for panel in panels:
        review = panel.review_by(reviewer_id)
        flagged += int(review.integrity_flag)
    return flagged / len(panels)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    """Fraction of panels in which at least one reviewer raised a flag."""
    if not panels:
        raise ValueError("panels: must be non-empty")
    return sum(1 for p in panels if p.any_flag) / len(panels)


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
    flagged: list[ReviewPanel] = []
    for panel in panels:
        if reviewer_id is None:
            hit = panel.any_flag
        else:
            hit = panel.review_by(reviewer_id).integrity_flag
        if hit:
            flagged.append(panel)
    if not flagged:
        return None
    conflicts = 0
    for panel in flagged:
        if panel.submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {panel.submission_id!r}")
        if scores[panel.submission_id] >= threshold:
            conflicts += 1
    return conflicts / len(flagged)


def detector_counts(
    panels: Sequence[ReviewPanel],
    reviewer_id: str | None = None,
) -> ConfusionCounts:
    """Confusion counts treating flags as fabrication predictions.

    Truth is each panel's fabrication label; every panel must be labeled.
    """
    if not panels:
        raise ValueError("panels: must be non-empty")
    tp = fp = tn = fn = 0
    for panel in panels:
        if panel.fabrication_label is None:
            raise ValueError(
                f"panels: panel {panel.submission_id!r} has no fabrication_label"
            )
        if reviewer_id is None:
            predicted = panel.any_flag
        else:
            predicted = panel.review_by(reviewer_id).integrity_flag
        if panel.fabrication_label:
            tp += int(predicted)
            fn += int(not predicted)
        else:
            fp += int(predicted)
            tn += int(not predicted)
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


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
