"""``panelcal detector-eval``: integrity flags scored against fabrication labels.

It parses a panel file once into a ``PanelTable`` and counts on its
columns; each row's rates come from ``metrics.detector_rates``, so it
builds no ``objects`` type.  It scores no panel, so it loads neither ``aggregate``, ``config``
nor ``core``; on a column-cache hit it loads no parser either (``rundir``).
"""

from __future__ import annotations

import argparse

from . import metrics, writers
from .rules import RecordError
from .rundir import _Run
from .tables import PanelTable


def _check_roster(table: PanelTable) -> None:
    """No reviewer may take the name of a summary row of ``metrics.csv`` or ``detector.csv``."""
    for code, name in enumerate(table.roster):
        if name in ("any", "random-baseline"):
            where = table.reviewer_where(code)
            raise RecordError(f"{where}: reviewer name {name!r} is reserved for the summary row")


def cmd_detector_eval(args: argparse.Namespace) -> int:
    run = _Run(args.out, "detector-eval", None, None, [])
    table = run.load("panel", args.panels)
    _check_roster(table)
    table.validate(require_labels=True)

    table_rows, csv_rows = [], []
    confusion = metrics.confusion_counts(table)
    for name, tp, fp, tn, fn in zip([*table.roster, "any"], *confusion):
        tpr, fpr, accuracy, f1 = metrics.detector_rates(tp, fp, tn, fn)
        csv_rows.append((name, tp, fp, tn, fn, tpr, fpr, accuracy, f1))
        table_rows.append((
            name,
            writers.rate_with_counts(tp, tp + fn),
            writers.rate_with_counts(fp, fp + tn),
            writers.rate_with_counts(tp + tn, tp + fp + tn + fn),
            writers.format_percent(f1),
        ))

    # fair-coin reference: TPR/FPR/Acc 50% in expectation, F1 from prevalence
    tp, fp, tn, fn = (column[-1] for column in confusion)
    positives = tp + fn
    negatives = fp + tn
    baseline_f1 = 2 * positives / (3 * positives + negatives) if positives else 0.0
    csv_rows.append(("random-baseline", None, None, None, None, 0.5, 0.5, 0.5, baseline_f1))
    coin = writers.format_percent(0.5)
    table_rows.append(("random-baseline", coin, coin, coin, writers.format_percent(baseline_f1)))

    run.write(
        "detector.csv",
        writers.csv_text(
            ["reviewer", "tp", "fp", "tn", "fn", "tpr", "fpr", "accuracy", "f1"],
            list(zip(*csv_rows)),
        ),
    )
    report = [
        "detector evaluation",
        "",
        f"labeled panels: {len(table)}",
        "",
        writers.aligned_table(["reviewer", "tpr", "fpr", "accuracy", "f1"], list(zip(*table_rows))),
    ]
    run.write("detector_report.txt", "\n".join(report))
    run.finish()
    return 0

