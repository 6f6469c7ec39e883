"""``panelcal review``, ``bayes`` and ``detector-eval``: score and count panels.

All three parse a panel file once into a ``PanelTable`` and work on its
columns; none of them imports ``simulate``, ``calibrate`` or ``bounds``.
"""

from __future__ import annotations

import argparse
import math
from typing import Callable, Mapping

import numpy as np

from . import aggregate, bayes, config, metrics, records
from .cli import _config_error, _Run
from .core import ConfusionCounts, RubricSchema, ScoringFunctional
from .records import PanelTable


def _scoring(
    schema: RubricSchema | None, functional: ScoringFunctional | None
) -> ScoringFunctional:
    """The configured functional; without one, the mean over the schema's criteria."""
    if functional is None:
        if schema is None:
            raise _config_error("functional: required when no schema is given")
        return ScoringFunctional.mean(schema.criteria_count)
    if functional.kind == "overall_pick" and (schema is None or schema.overall_index is None):
        raise _config_error("functional: overall_pick scoring needs a schema with overall_index set")
    return functional


def _per_reviewer(
    table: PanelTable,
    mapping: Mapping[str, float],
    path: str,
    noun: str,
    fallback: str | None = None,
) -> np.ndarray:
    """``mapping[reviewer]`` for each roster member, in roster order.

    A reviewer missing from ``mapping`` takes ``mapping[fallback]`` when
    that key is given.  Errors name the config key path.
    """
    values = np.empty(len(table.roster))
    for code, reviewer in enumerate(table.roster):
        key = reviewer if reviewer in mapping else fallback
        if key not in mapping:
            no_fallback = "" if fallback is None else f" and no {fallback}"
            raise _config_error(
                f"{path}.{reviewer}: no {noun} for reviewer {reviewer!r}{no_fallback} "
                f"(first review at {table.reviewer_where(code)})"
            )
        values[code] = mapping[key]
    return values


def _review_weights(
    table: PanelTable, weights: str | Mapping[str, float], gls_variances: Mapping[str, float] | None
) -> np.ndarray:
    """(N,) each review's weight in its panel's consensus.

    The weights are normalized the way ``ReviewerWeights`` (and, for GLS,
    ``aggregate.gls_weights`` before it) normalize them.
    """

    def normalized(values: np.ndarray) -> np.ndarray:
        return values / table.panel_sums(values)[table.panel_index]

    if weights == "uniform":
        return normalized(1.0 / table.counts[table.panel_index])
    if weights == "gls":
        if gls_variances is None:
            raise _config_error(
                "gls_variances: required reviewer-to-variance object when weights is 'gls'"
            )
        inverse = 1.0 / _per_reviewer(table, gls_variances, "gls_variances", "variance")
        return normalized(normalized(inverse[table.reviewer]))
    values = _per_reviewer(table, weights, "weights", "weight")[table.reviewer]
    totals = table.panel_sums(values)
    table.require(totals > 0, "the panel's reviewer weights from config sum to 0; must be > 0")
    return normalized(values / totals[table.panel_index])


def _check_criteria(table: PanelTable, functional: ScoringFunctional) -> None:
    """Every rubric needs one criterion per coefficient of a linear functional.

    For ``overall_pick`` the schema has already fixed the criteria count.
    """
    if functional.kind == "linear":
        count = len(functional.coefficients)
        wrong = np.bincount(table.panel_index[table.criteria != count], minlength=len(table))
        table.require(wrong == 0, f"rubric length differs from the functional's {count} coefficients")



# ---------------------------------------------------------------- review


def cmd_review(args: argparse.Namespace) -> int:
    schema, functional, weights, gls_variances = config.load(
        args.config, "schema", "functional", "weights", "gls_variances"
    )
    functional = _scoring(schema, functional)
    table = records.load_panel_table(args.panels)
    table.validate(schema)
    _check_criteria(table, functional)
    thresholds = config.load_thresholds(args.thresholds)
    weights = _review_weights(table, weights, gls_variances)
    consensus = aggregate.consensus_rows(table.rubric, weights, table.counts)
    scores = aggregate.score_rows(consensus, functional, schema)
    table.require(np.isfinite(scores), "consensus score is not finite")

    n = len(table)
    taus = {"tau_rate": thresholds.tau_rate, "tau_05": thresholds.tau_05}
    accepts = {label: scores >= tau for label, tau in taus.items()}
    any_flag = table.any_flag
    flagged_any = int(np.count_nonzero(any_flag))
    flagged = table.reviewer_counts(table.flags).tolist()
    names = [*table.roster, "any"]

    # a validated panel has at most one review per reviewer, so review
    # counts per reviewer are panel counts
    metric_rows: list[tuple[object, ...]] = []
    acceptance_rows = []
    for label, accept in accepts.items():
        k = int(np.count_nonzero(accept))
        metric_rows.append(("acpt", label, k / n, k, n))
        acceptance_rows.append((label, f"{taus[label]:.6g}", metrics.rate_with_counts(k, n)))
    icr_table_rows = []
    for name, k, total in zip(
        names, [*flagged, flagged_any], [*table.reviewer_counts().tolist(), n]
    ):
        metric_rows.append(("icr", name, k / total, k, total))
        icr_table_rows.append((name, metrics.rate_with_counts(k, total)))
    conflict_table_rows = []
    for label, accept in accepts.items():
        conflicts = table.reviewer_counts(table.flags & accept[table.panel_index]).tolist()
        conflicts.append(int(np.count_nonzero(any_flag & accept)))
        for name, k, total in zip(names, conflicts, [*flagged, flagged_any]):
            metric_rows.append(
                (f"conflict_{label}", name, k / total if total else None,
                 k if total else None, total)
            )
            conflict_table_rows.append(
                (name, label, metrics.rate_with_counts(k, total) if total else "- (no flags)")
            )

    run = _Run(args.out, "review", None, args.config, [args.panels, args.thresholds])
    run.write(
        "decisions.csv",
        metrics.csv_text(
            [
                "id",
                "score",
                "accept_tau_rate",
                "margin_tau_rate",
                "accept_tau_05",
                "margin_tau_05",
                "any_flag",
            ],
            list(zip(
                table.ids,
                scores.tolist(),
                accepts["tau_rate"].tolist(),
                (scores - thresholds.tau_rate).tolist(),
                accepts["tau_05"].tolist(),
                (scores - thresholds.tau_05).tolist(),
                any_flag.tolist(),
            )),
        ),
    )
    run.write(
        "metrics.csv",
        metrics.csv_text(["metric", "scope", "value", "numerator", "denominator"], metric_rows),
    )
    report = [
        "review report",
        "",
        f"panels: {n}",
        "",
        "acceptance",
        metrics.aligned_table(["threshold", "value", "acpt"], acceptance_rows),
        "integrity flags",
        metrics.aligned_table(["reviewer", "icr"], icr_table_rows),
        "conflicts (flagged but scored at acceptance level)",
        metrics.aligned_table(["reviewer", "threshold", "conflict"], conflict_table_rows),
    ]
    run.write("review_report.txt", "\n".join(report))
    run.finish()
    return 0


# ---------------------------------------------------------------- bayes


def cmd_bayes(args: argparse.Namespace) -> int:
    schema, functional, settings = config.load(args.config, "schema", "functional", "bayes")
    functional = _scoring(schema, functional)
    prior, alpha, threshold = settings["prior"], settings["alpha"], settings["threshold"]
    review_variances = settings["review_variances"]
    solicit_variance = settings["solicit_variance"] or review_variances.get("default", 1.0)
    inputs = [args.panels]
    if threshold in ("tau_rate", "tau_05"):
        if args.thresholds is None:
            raise _config_error(f"bayes.threshold: {threshold!r} needs --thresholds")
        threshold = getattr(config.load_thresholds(args.thresholds), threshold)
        inputs.append(args.thresholds)
    if not math.isfinite(threshold):
        raise _config_error(f"bayes.threshold: resolved threshold {threshold} is not finite")

    table = records.load_panel_table(args.panels)
    table.validate(schema, require_reviews=False)
    _check_criteria(table, functional)
    variances = _per_reviewer(
        table, review_variances, "bayes.review_variances", "variance", "default"
    )
    scores = aggregate.score_rows(table.rubric, functional, schema)
    means, posterior_variances = bayes.posterior_arrays(
        prior, scores, variances[table.reviewer], table.panel_sums
    )
    table.require(
        np.isfinite(means) & (posterior_variances > 0),
        "posterior mean is not finite or its variance is 0",
    )
    p_accept, robust, solicit = bayes.credible_calls(
        means, posterior_variances, threshold, alpha, solicit_variance
    )
    rows = list(
        zip(
            table.ids,
            table.counts.tolist(),
            means.tolist(),
            posterior_variances.tolist(),
            p_accept.tolist(),
            (p_accept >= 0.5).tolist(),
            robust.tolist(),
            solicit.tolist(),
            ["" if count else "prior-only" for count in table.counts.tolist()],
        )
    )

    run = _Run(args.out, "bayes", None, args.config, inputs)
    run.write(
        "bayes.csv",
        metrics.csv_text(
            [
                "id",
                "n_reviews",
                "posterior_mean",
                "posterior_variance",
                "p_accept",
                "accept",
                "robust",
                "solicit",
                "note",
            ],
            rows,
        ),
    )
    table_rows = [
        (
            r[0],
            str(r[1]),
            f"{r[2]:.4f}",
            f"{r[3]:.4f}",
            f"{r[4]:.4f}",
            "yes" if r[6] else "no",
            "yes" if r[7] else "no",
            r[8],
        )
        for r in rows
    ]
    report = [
        "credible decision report",
        "",
        f"panels:     {len(rows)}",
        f"prior:      mean {prior.mean:.6g}, variance {prior.variance:.6g}",
        f"threshold:  {threshold:.6g}",
        f"alpha:      {alpha:.6g}",
        "",
        metrics.aligned_table(
            ["id", "reviews", "post_mean", "post_var", "p_accept", "robust", "solicit", "note"],
            table_rows,
        ),
    ]
    run.write("bayes_report.txt", "\n".join(report))
    run.finish()
    return 0


# ---------------------------------------------------------------- detector


def _confusion(
    predicted: np.ndarray, truth: np.ndarray, count: Callable[[np.ndarray], np.ndarray]
) -> list[list[int]]:
    """[tp, fp, tn, fn], each as the list ``count`` makes of a selection mask."""
    return [
        count(predicted & truth).tolist(),
        count(predicted & ~truth).tolist(),
        count(~predicted & ~truth).tolist(),
        count(~predicted & truth).tolist(),
    ]


def cmd_detector_eval(args: argparse.Namespace) -> int:
    table = records.load_panel_table(args.panels)
    table.validate(require_labels=True)

    per_reviewer = _confusion(
        table.flags, table.labels[table.panel_index], table.reviewer_counts
    )
    per_panel = _confusion(
        table.any_flag, table.labels, lambda mask: np.array([np.count_nonzero(mask)])
    )
    table_rows = []
    csv_rows = []
    for name, tp, fp, tn, fn in zip(
        [*table.roster, "any"], *(a + b for a, b in zip(per_reviewer, per_panel))
    ):
        counts = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
        m = metrics.detector_metrics(counts)
        csv_rows.append((name, tp, fp, tn, fn, m.tpr, m.fpr, m.accuracy, m.f1))
        table_rows.append(
            (
                name,
                f"{metrics.format_percent(m.tpr)} ({tp}/{tp + fn})",
                f"{metrics.format_percent(m.fpr)} ({fp}/{fp + tn})",
                f"{metrics.format_percent(m.accuracy)} ({tp + tn}/{counts.total})",
                metrics.format_percent(m.f1),
            )
        )

    # fair-coin reference: TPR/FPR/Acc 50% in expectation, F1 from prevalence
    positives = int(np.count_nonzero(table.labels))
    negatives = len(table) - positives
    baseline_f1 = 2 * positives / (3 * positives + negatives) if positives else 0.0
    csv_rows.append(("random-baseline", None, None, None, None, 0.5, 0.5, 0.5, baseline_f1))
    table_rows.append(
        ("random-baseline", "50.0%", "50.0%", "50.0%", metrics.format_percent(baseline_f1))
    )

    run = _Run(args.out, "detector-eval", None, None, [args.panels])
    run.write(
        "detector.csv",
        metrics.csv_text(
            ["reviewer", "tp", "fp", "tn", "fn", "tpr", "fpr", "accuracy", "f1"],
            csv_rows,
        ),
    )
    report = [
        "detector evaluation",
        "",
        f"labeled panels: {len(table)}",
        "",
        metrics.aligned_table(["reviewer", "tpr", "fpr", "accuracy", "f1"], table_rows),
    ]
    run.write("detector_report.txt", "\n".join(report))
    run.finish()
    return 0

