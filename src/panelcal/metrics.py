"""Corpus-level evaluation measures, as kernels over the columns of a ``PanelTable``.

Rates here are fractions in [0, 1]; the report writers, defined in
``panelcal.writers`` and re-exported here, are the only place that
formats them as one-decimal percentages.  Degenerate denominators
produce ``None`` (reported as absent), never a silent 0/0.

This module defines the count kernels (``flag_counts``,
``conflict_counts``, ``confusion_counts``) and the rates kernel
``detector_rates``, which ``detector-eval`` and
``objects.detector_metrics`` both run.  The object-taking forms
(``ConfusionCounts``, ``DetectorMetrics``, ``acpt``, ``icr_per_model``,
``icr_any``, ``conflict_rate``, ``detector_counts`` and
``detector_metrics``) are defined in ``panelcal.objects``; this module
re-exports them and imports that module on first use of one.
"""

from __future__ import annotations

import numpy as np

from . import _lazy
from .tables import PanelTable
from .writers import aligned_table, csv_text, format_percent, rate_with_counts

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
    "detector_rates",
    "detector_metrics",
    "format_percent",
    "rate_with_counts",
    "aligned_table",
    "csv_text",
]

__getattr__, __dir__ = _lazy(__name__, {
    "objects": ("ConfusionCounts", "DetectorMetrics", "acpt", "icr_per_model", "icr_any", "conflict_rate",
                "detector_counts", "detector_metrics"),
})


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


def confusion_counts(table: PanelTable) -> tuple[list[int], list[int], list[int], list[int]]:
    """Flags as predictions of the panels' labels: the (tp, fp, tn, fn) columns, each per roster member and
    then for ``any``."""
    truth = table.labels[table.panel_index]
    tp = _per_scope(table, table.flags & truth, table.any_flag & table.labels)
    fp = _per_scope(table, table.flags & ~truth, table.any_flag & ~table.labels)
    tn = _per_scope(table, ~table.flags & ~truth, ~table.any_flag & ~table.labels)
    fn = _per_scope(table, ~table.flags & truth, ~table.any_flag & table.labels)
    return tp, fp, tn, fn


def detector_rates(tp: int, fp: int, tn: int, fn: int) -> tuple[float | None, float | None, float, float]:
    """TPR, FPR, accuracy, F1 from confusion counts that sum to at least 1.

    TPR is absent without positives, FPR absent without negatives, and F1
    is 0 when there are no true positives.
    """
    positives = tp + fn
    negatives = fp + tn
    tpr = tp / positives if positives else None
    fpr = fp / negatives if negatives else None
    accuracy = (tp + tn) / (positives + negatives)
    if tp == 0:
        f1 = 0.0
    else:
        f1 = 2 * tp / (2 * tp + fp + fn)
    return tpr, fpr, accuracy, f1
