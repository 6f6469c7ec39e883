"""``panelcal review`` and ``bayes``: score panels.

Both parse a panel file once into a ``PanelTable`` and work on its
columns; neither imports ``simulate``, ``calibrate`` or ``bounds``, and
only ``bayes`` imports ``panelcal.bayes``, and only ``review``
``metrics``.  ``detector-eval``, which scores nothing, lives in
``cli_detector``.  Both write their per-panel files from typed columns,
each a ``tables.Strings`` (``writers.texts``): each distinct number is
formatted once.  Neither builds an object of ``panelcal.objects``: they
run ``aggregate``'s column kernels.
"""

from __future__ import annotations

import argparse
from typing import Callable, Mapping

import numpy as np

from . import aggregate, config, rules, writers
from .core import RubricSchema, ScoringFunctional
from .rundir import _Run
from .tables import PanelTable, Strings, left_sums


def _scoring(
    schema: RubricSchema | None, functional: ScoringFunctional | None
) -> ScoringFunctional:
    """The configured functional; without one, the mean over the schema's criteria."""
    if functional is None:
        if schema is None:
            raise config.error("functional: required when no schema is given")
        return ScoringFunctional.mean(schema.criteria_count)
    if functional.kind == "overall_pick" and (schema is None or schema.overall_index is None):
        raise config.error("functional: overall_pick scoring needs a schema with overall_index set")
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
            raise config.error(
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
    ``objects.gls_weights`` before it) normalize them.
    """

    def normalized(values: np.ndarray) -> np.ndarray:
        return values / left_sums(values, table.counts)[table.panel_index]

    if weights == "uniform":
        return normalized(1.0 / table.counts[table.panel_index])
    if weights == "gls":
        if gls_variances is None:
            raise config.error(
                "gls_variances: required reviewer-to-variance object when weights is 'gls'"
            )
        inverse = 1.0 / _per_reviewer(table, gls_variances, "gls_variances", "variance")
        return normalized(normalized(inverse[table.reviewer]))
    values = _per_reviewer(table, weights, "weights", "weight")[table.reviewer]
    totals = left_sums(values, table.counts)
    table.require(totals > 0, "the panel's reviewer weights from config sum to 0; must be > 0")
    return normalized(values / totals[table.panel_index])


def _check_criteria(table: PanelTable, functional: ScoringFunctional) -> None:
    """Every rubric needs one criterion per coefficient of a linear functional.

    For ``overall_pick`` the schema has already fixed the criteria count.
    """
    if functional.kind == "linear":
        count = len(functional.coefficients)
        table.require(~table.panel_any(table.criteria != count),
                      f"rubric length differs from the functional's {count} coefficients")


def _margin(tau: float) -> Callable[[float], str]:
    """The text of ``score - tau`` for one distinct score: the IEEE subtraction numpy runs over a column."""
    return lambda score: repr(score - tau)


# ---------------------------------------------------------------- review


def cmd_review(args: argparse.Namespace) -> int:
    from . import metrics  # here, so bayes does not load the rates or the roster check
    from .cli_detector import _check_roster

    schema, functional, weights, gls_variances = config.load(
        args.config, "schema", "functional", "weights", "gls_variances"
    )
    functional = _scoring(schema, functional)
    run = _Run(args.out, "review", None, args.config, [args.thresholds])
    table = run.load("panel", args.panels)
    _check_roster(table)
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
    flagged, reviewed = metrics.flag_counts(table)
    names = [*table.roster, "any"]

    metric_rows: list[tuple[object, ...]] = []
    acceptance_rows = []
    for label, accept in accepts.items():
        k = int(np.count_nonzero(accept))
        metric_rows.append(("acpt", label, k / n, k, n))
        acceptance_rows.append((label, f"{taus[label]:.6g}", writers.rate_with_counts(k, n)))
    icr_table_rows = []
    for name, k, total in zip(names, flagged, reviewed):
        metric_rows.append(("icr", name, k / total, k, total))
        icr_table_rows.append((name, writers.rate_with_counts(k, total)))
    conflict_table_rows = []
    for label, accept in accepts.items():
        conflicts = metrics.conflict_counts(table, accept)
        for name, k, total in zip(names, conflicts, flagged):
            metric_rows.append(
                (f"conflict_{label}", name, k / total if total else None,
                 k if total else None, total)
            )
            conflict_table_rows.append(
                (name, label, writers.rate_with_counts(k, total) if total else "- (no flags)")
            )

    score_text, margin_rate, margin_05 = writers.texts(scores, repr, *map(_margin, taus.values()))
    run.write(
        "decisions.csv",
        writers.csv_text(
            [
                "id",
                "score",
                "accept_tau_rate",
                "margin_tau_rate",
                "accept_tau_05",
                "margin_tau_05",
                "any_flag",
            ],
            [
                table.ids,
                score_text,
                accepts["tau_rate"],
                margin_rate,
                accepts["tau_05"],
                margin_05,
                table.any_flag,
            ],
        ),
    )
    run.write(
        "metrics.csv",
        writers.csv_text(
            ["metric", "scope", "value", "numerator", "denominator"], list(zip(*metric_rows))
        ),
    )
    report = [
        "review report",
        "",
        f"panels: {n}",
        "",
        "acceptance",
        writers.aligned_table(["threshold", "value", "acpt"], list(zip(*acceptance_rows))),
        "integrity flags",
        writers.aligned_table(["reviewer", "icr"], list(zip(*icr_table_rows))),
        "conflicts (flagged but scored at acceptance level)",
        writers.aligned_table(
            ["reviewer", "threshold", "conflict"], list(zip(*conflict_table_rows))
        ),
    ]
    run.write("review_report.txt", "\n".join(report))
    run.finish()
    return 0


# ---------------------------------------------------------------- bayes


def cmd_bayes(args: argparse.Namespace) -> int:
    from . import bayes  # here, so review and detector-eval do not load it and statistics

    schema, functional, settings = config.load(args.config, "schema", "functional", "bayes")
    functional = _scoring(schema, functional)
    prior, alpha, threshold = settings["prior"], settings["alpha"], settings["threshold"]
    review_variances = settings["review_variances"]
    solicit_variance = settings["solicit_variance"] or review_variances.get("default", 1.0)
    inputs = []
    if threshold in ("tau_rate", "tau_05"):
        if args.thresholds is None:
            raise config.error(f"bayes.threshold: {threshold!r} needs --thresholds")
        threshold = getattr(config.load_thresholds(args.thresholds), threshold)
        inputs.append(args.thresholds)
    try:
        threshold = rules.finite("threshold", threshold)
    except ValueError as exc:
        raise config.rename(exc, {"threshold": config.key_name("bayes.threshold")}) from None

    run = _Run(args.out, "bayes", None, args.config, inputs)
    table = run.load("panel", args.panels)
    table.validate(schema, require_reviews=False)
    _check_criteria(table, functional)
    variances = _per_reviewer(
        table, review_variances, "bayes.review_variances", "variance", "default"
    )
    scores = aggregate.score_rows(table.rubric, functional, schema)
    means, posterior_variances = bayes.posterior_arrays(
        prior, scores, variances[table.reviewer], table.counts
    )
    table.require(
        np.isfinite(means) & (posterior_variances > 0),
        "posterior mean is not finite or its variance is 0",
    )
    p_accept, robust, solicit = bayes.credible_calls(
        means, posterior_variances, threshold, alpha, solicit_variance
    )
    [counts] = writers.texts(table.counts, str)
    notes = Strings(("prior-only", ""), table.counts > 0)
    # each float column's full text for the CSV and its 4-decimal text for the report
    floats = [writers.texts(column, repr, "{:.4f}".format) for column in (means, posterior_variances, p_accept)]

    run.write(
        "bayes.csv",
        writers.csv_text(
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
            [
                table.ids,
                counts,
                *(full for full, _ in floats),
                p_accept >= 0.5,
                robust,
                solicit,
                notes,
            ],
        ),
    )
    table_columns = [
        table.ids,
        counts,
        *(short for _, short in floats),
        *(Strings(("no", "yes"), calls) for calls in (robust, solicit)),
        notes,
    ]
    report = [
        "credible decision report",
        "",
        f"panels:     {len(table)}",
        f"prior:      mean {prior.mean:.6g}, variance {prior.variance:.6g}",
        f"threshold:  {threshold:.6g}",
        f"alpha:      {alpha:.6g}",
        "",
        writers.aligned_table(
            ["id", "reviews", "post_mean", "post_var", "p_accept", "robust", "solicit", "note"],
            table_columns,
        ),
    ]
    run.write("bayes_report.txt", "\n".join(report))
    run.finish()
    return 0
