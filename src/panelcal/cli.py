"""Batch command-line interface.

Subcommands:

* ``calibrate``      fit thresholds against a human-labeled record pool
* ``review``         score panels and report corpus metrics
* ``bayes``          credible accept/reject calls per panel
* ``detector-eval``  flag-vs-label detection metrics
* ``simulate``       Monte-Carlo experiments (margins, threshold-error, variance)
* ``bound``          print one bound value (tail, margin, scalar, dkw, tau05)

Every data-producing run that completes writes into a fresh directory
under ``--out``: its outputs, then a ``manifest.json`` (command, seed,
input and output digests, UTC timestamps); nothing is ever overwritten.
A command that stops on an error creates no directory.  Exit codes:
0 success, 2 input or config error, 3 calibration infeasible, 4
simulation property-check failure (its run directory is still written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import __version__, aggregate, bayes, bounds, calibrate, config, metrics, records, simulate
from .calibrate import ThresholdUnreachableError
from .core import ConfusionCounts, DecisionThresholds, NoiseProfile, RubricSchema, ScoringFunctional
from .records import CalibrationTable, PanelTable, RecordError

__all__ = ["RunManifest", "build_parser", "main", "run"]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- manifest


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run directory, written as ``manifest.json``."""

    command: str
    tool_version: str
    started_at: str
    finished_at: str | None
    seed: int | None
    config_digest: str | None
    input_digests: dict[str, str]
    output_digests: dict[str, str]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Run:
    """One run's manifest and outputs, kept in memory until ``finish`` writes them."""

    def __init__(
        self,
        out_base: str,
        command: str,
        seed: int | None,
        config_path: str | None,
        input_paths: Sequence[str],
    ) -> None:
        input_digests = {str(p): _sha256_file(Path(p)) for p in input_paths}
        config_digest = None if config_path is None else _sha256_file(Path(config_path))
        ident = hashlib.sha256(
            json.dumps(
                [command, seed, config_digest, sorted(input_digests.items())],
                sort_keys=True,
            ).encode()
        ).hexdigest()[:8]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.out_base = Path(out_base)
        self.name = f"{command}-{stamp}-{ident}"
        self.outputs: dict[str, str] = {}
        self.manifest = RunManifest(
            command=command,
            tool_version=__version__,
            started_at=_utc_now(),
            finished_at=None,
            seed=seed,
            config_digest=config_digest,
            input_digests=input_digests,
            output_digests={},
        )

    def write(self, name: str, text: str) -> None:
        if name in self.outputs:
            raise RuntimeError(f"refusing to overwrite {name}")
        self.outputs[name] = text

    def finish(self) -> None:
        """Create the run directory, write the outputs, then the manifest."""
        self.out_base.mkdir(parents=True, exist_ok=True)
        run_dir = self.out_base / self.name
        suffix = 1
        while run_dir.exists():
            suffix += 1
            run_dir = self.out_base / f"{self.name}-{suffix}"
        run_dir.mkdir()
        for name, text in self.outputs.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        manifest = replace(
            self.manifest,
            finished_at=_utc_now(),
            output_digests={name: _sha256_file(run_dir / name) for name in sorted(self.outputs)},
        )
        text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        (run_dir / "manifest.json").write_text(text, encoding="utf-8")
        print(f"run directory: {run_dir}")


# ---------------------------------------------------------------- config


def _config_error(message: str) -> RecordError:
    return RecordError(f"config: {message}")


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


# ---------------------------------------------------------------- calibrate


def _check_strata(
    pool: CalibrationTable, n_cal: int, bin_edges: Sequence[float], status_vocabulary: Sequence[str]
) -> None:
    """The ``stratify`` cells must hold every pool record, and ``n_cal`` fit the pool.

    ``calibrate.stratify`` checks the same; these errors name the config
    key and the pool line.
    """
    known = set(status_vocabulary)
    outside = (pool.scores < bin_edges[0]) | (pool.scores > bin_edges[-1])
    if outside.any() or not known.issuperset(pool.statuses):
        for i, status in enumerate(pool.statuses):
            if status not in known:
                raise RecordError(
                    f"{pool.where(i)}: status {status!r} not in "
                    f"stratify.status_vocabulary {list(status_vocabulary)}"
                )
            if outside[i]:
                raise RecordError(
                    f"{pool.where(i)}: score {float(pool.scores[i])} outside "
                    f"stratify.bin_edges [{bin_edges[0]}, {bin_edges[-1]}]"
                )
    if n_cal > len(pool):
        raise _config_error(f"stratify.n_cal: must be an integer in [1, {len(pool)}], got {n_cal}")


def cmd_calibrate(args: argparse.Namespace) -> int:
    target_rate, delta, stratify = config.load(args.config, "target_rate", "delta", "stratify")
    pool = records.load_calibration_table(args.records)
    if stratify is not None:
        _check_strata(pool, **stratify)

    run = _Run(args.out, "calibrate", args.seed, args.config, [args.records])

    used = pool
    plan = None
    if stratify is not None:
        seed = 0 if args.seed is None else args.seed
        plan, used = calibrate.stratify(pool, **stratify, seed=seed)

    scores = used.scores
    tau_rate = calibrate.rate_matching_threshold(scores, target_rate)
    achieved = calibrate.empirical_acceptance(scores, tau_rate)
    tau05 = calibrate.tau05_from_scores(scores, used.accepts)
    points = calibrate.tail_probability_points(used, calibrate.distinct_scores(scores))
    curve = calibrate.isotonic_fit(points)
    thresholds = DecisionThresholds(
        tau_rate=tau_rate,
        tau_05=tau05,
        target_rate=target_rate,
        calibration_size=len(used),
    )

    payload = {**asdict(thresholds), "stratified": plan is not None, "seed": args.seed}
    run.write("thresholds.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if plan is not None:
        run.write("plan.json", json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n")

    run.write(
        "curve.csv",
        metrics.csv_text(
            ["threshold", "raw_estimate", "fitted", "weight"],
            [(t, raw, fit, weight) for (t, raw, weight), fit in zip(points, curve.fitted)],
        ),
    )

    eps = bounds.dkw_bound(len(used), delta)
    lines = [
        "calibration report",
        "",
        f"pool records:        {len(pool)}",
        f"calibration records: {len(used)}"
        + ("" if plan is None else "  (stratified)"),
        f"target rate:         {target_rate:.6g}",
        f"tau_rate:            {tau_rate:.6g}",
        f"achieved rate:       {achieved:.6g}  ({round(achieved * len(used))}/{len(used)})",
        f"tau_05:              {tau05:.6g}",
        f"curve max fitted:    {curve.fitted[-1]:.6g}",
        f"rate error bound:    {eps:.6g}  (delta={delta:.6g})",
        "",
    ]
    run.write("calibration_report.txt", "\n".join(lines))
    run.finish()
    return 0


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


# ---------------------------------------------------------------- simulate


def _checks_text(named: Sequence[tuple[str, list[str]]]) -> tuple[str, bool]:
    lines = []
    ok = True
    for name, failures in named:
        if failures:
            ok = False
            lines.append(f"FAIL: {name}")
            lines.extend(f"  {f}" for f in failures)
        else:
            lines.append(f"PASS: {name}")
    return "\n".join(lines) + "\n", ok


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise RecordError(f"{flag}: expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise RecordError(f"{flag}: expected at least one integer")
    return values


def _cohort_settings(
    args: argparse.Namespace, path: str, spec: simulate.CohortSpec, m_grid: tuple[int, ...]
) -> tuple[simulate.CohortSpec, tuple[int, ...]]:
    """Cohort spec and panel sizes of the cohort experiment configured at ``path``.

    ``--m`` / ``--seed`` override the config.  The cohort is resized to the
    largest panel size, every reviewer taking the first one's variance.
    """
    if args.m is not None:
        m_grid = _parse_int_list(args.m, "--m")
    if not m_grid or min(m_grid) < 1:
        where = "--m" if args.m is not None else f"config: {path}.m_grid"
        raise RecordError(f"{where}: panel sizes must be integers >= 1, got {list(m_grid)}")
    m_max = max(m_grid)
    if m_max != spec.m_reviewers:
        sigma = spec.noise.per_reviewer_variance[0]
        noise = NoiseProfile((sigma,) * m_max, spec.noise.scalar_bounds)
        spec = replace(spec, m_reviewers=m_max, noise=noise)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec, m_grid


def cmd_simulate_margins(args: argparse.Namespace) -> int:
    path = "simulate.margins"
    [settings] = config.load(args.config, path)
    spec, m_grid = _cohort_settings(args, path, settings["spec"], settings["m_grid"])
    run = _Run(args.out, "simulate-margins", spec.seed, args.config, [])
    rows = simulate.margin_suite(spec, m_grid, settings["threshold"], settings["bin_edges"])
    run.write(
        "margin_bins.csv",
        metrics.csv_text(
            ["gamma_lo", "gamma_hi", "gamma_mid", "empirical", "stderr", "bound", "count", "m"],
            [
                (
                    r.gamma_lo,
                    r.gamma_hi,
                    r.gamma_mid,
                    r.empirical,
                    r.stderr,
                    r.bound,
                    r.count,
                    r.m,
                )
                for r in rows
            ],
        ),
    )
    text, ok = _checks_text(
        [
            ("empirical misclassification within bound (3 SE slack)", simulate.check_margin_dominance(rows)),
            ("larger panels no worse per bin (count >= 50)", simulate.check_margin_ordering(rows)),
        ]
    )
    run.write("checks.txt", text)
    run.finish()
    print(text, end="")
    return 0 if ok else 4


def cmd_simulate_threshold_error(args: argparse.Namespace) -> int:
    path = "simulate.threshold_error"
    [section] = config.load(args.config, path)
    settings = section["population"]
    grid = section["n_cal_grid"] if args.grid is None else _parse_int_list(args.grid, "--grid")
    replicates = section["replicates"] if args.replicates is None else args.replicates
    seed = section["seed"] if args.seed is None else args.seed
    size = settings.cohort.n_papers
    if not grid or grid[0] < 2 or grid[-1] > size or any(b <= a for a, b in zip(grid, grid[1:])):
        where = "--grid" if args.grid is not None else f"config: {path}.n_cal_grid"
        raise RecordError(
            f"{where}: calibration sizes must be strictly increasing integers in [2, {size}], "
            f"got {list(grid)}"
        )

    run = _Run(args.out, "simulate-threshold-error", seed, args.config, [])
    population = simulate.synthetic_calibration_population(settings)
    rows = simulate.threshold_bootstrap(population, grid, replicates, seed)
    run.write(
        "threshold_error.csv",
        metrics.csv_text(
            ["n_cal", "mean_abs_err", "stderr", "failures"],
            [(r.n_cal, r.mean_abs_err, r.stderr, r.failures) for r in rows],
        ),
    )
    slope = simulate.error_curve_slope(rows)
    reference = [r for r in rows if r.n_cal == 200]
    lines = [f"log-log slope: {slope:.4f}"]
    if reference:
        lines.append(f"mean abs error at n_cal=200: {reference[0].mean_abs_err:.4f}")
    text, ok = _checks_text(
        [("error decays like 1/sqrt(n_cal), near-monotone", simulate.check_threshold_rows(rows))]
    )
    body = "\n".join(lines) + "\n" + text
    run.write("checks.txt", body)
    run.finish()
    print(body, end="")
    return 0 if ok else 4


def cmd_simulate_variance(args: argparse.Namespace) -> int:
    path = "simulate.variance"
    [settings] = config.load(args.config, path)
    spec, m_grid = _cohort_settings(args, path, settings["spec"], settings["m_grid"])

    run = _Run(args.out, "simulate-variance", spec.seed, args.config, [])
    rows = simulate.variance_experiment(spec, m_grid)
    run.write(
        "variance.csv",
        metrics.csv_text(
            ["m", "var_empirical", "proxy"],
            [(r.m, r.var_empirical, r.proxy) for r in rows],
        ),
    )
    low, high = min(m_grid), max(m_grid)
    text, ok = _checks_text(
        [
            (
                "consensus variance scales like 1/M",
                simulate.check_variance_rows(rows, m_low=low, m_high=high),
            )
        ]
    )
    run.write("checks.txt", text)
    run.finish()
    print(text, end="")
    return 0 if ok else 4


# ---------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> int:
    from .core import BoundInputs

    if args.bound_kind == "tail":
        value = bounds.tail_bound(
            args.t, BoundInputs(sigma_w_sq=args.sigma_w_sq, c_max=args.c_max)
        )
    elif args.bound_kind == "margin":
        value = bounds.margin_misclassification_bound(
            args.gamma, BoundInputs(sigma_w_sq=args.sigma_w_sq, c_max=args.c_max)
        )
    elif args.bound_kind == "scalar":
        value = bounds.scalar_uniform_bound(args.m, args.gamma, args.sigma_sq, args.range_width)
    elif args.bound_kind == "dkw":
        value = bounds.dkw_bound(args.n_cal, args.delta)
    else:
        value = bounds.tau05_error_bound(args.eps_pi, args.c_min, args.flat_width)
    print(f"{value:.6g}")
    return 0


# ---------------------------------------------------------------- parser


def _int_flag(minimum: int) -> Callable[[str], int]:
    """argparse type of an integer flag (``--seed``, ``--replicates``): at least ``minimum``."""
    wanted = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"

    def parse(text: str) -> int:
        try:
            return config.integer(minimum)(int(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelcal",
        description="Calibrated multi-reviewer decisions: aggregation, bounds, "
        "calibration, credible calls, and Monte-Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit thresholds against a labeled record pool")
    p.add_argument("--records", required=True, help="calibration JSONL pool")
    p.add_argument("--config", required=True, help="JSON config with target_rate")
    p.add_argument("--out", default="runs", help="parent directory for run outputs")
    p.add_argument("--seed", type=_int_flag(0), default=None, help="stratified sampling seed")
    p.set_defaults(handler=cmd_calibrate)

    p = sub.add_parser("review", help="score panels and report corpus metrics")
    p.add_argument("--panels", required=True, help="panel JSONL file")
    p.add_argument("--thresholds", required=True, help="thresholds JSON from calibrate")
    p.add_argument("--config", required=True, help="JSON config with schema/functional")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_review)

    p = sub.add_parser("bayes", help="credible accept/reject calls per panel")
    p.add_argument("--panels", required=True, help="panel JSONL file")
    p.add_argument("--thresholds", default=None, help="thresholds JSON from calibrate")
    p.add_argument("--config", required=True, help="JSON config with bayes prior")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_bayes)

    p = sub.add_parser("detector-eval", help="flag-vs-label detection metrics")
    p.add_argument("--panels", required=True, help="labeled panel JSONL file")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=cmd_detector_eval)

    p = sub.add_parser("simulate", help="Monte-Carlo validation experiments")
    sim_sub = p.add_subparsers(dest="experiment", required=True)

    q = sim_sub.add_parser("margins", help="misclassification vs margin bins")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--m", default=None, help="comma-separated panel sizes, e.g. 1,2,3")
    q.set_defaults(handler=cmd_simulate_margins)

    q = sim_sub.add_parser("threshold-error", help="tau_05 bootstrap error vs n_cal")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--grid", default=None, help="comma-separated n_cal grid")
    q.add_argument("--replicates", type=_int_flag(2), default=None)
    q.set_defaults(handler=cmd_simulate_threshold_error)

    q = sim_sub.add_parser("variance", help="consensus variance vs panel size")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--m", default=None, help="comma-separated panel sizes, e.g. 1,2,3")
    q.set_defaults(handler=cmd_simulate_variance)

    p = sub.add_parser("bound", help="print one bound value (6 significant digits)")
    bound_sub = p.add_subparsers(dest="bound_kind", required=True)

    q = bound_sub.add_parser("tail", help="deviation tail bound")
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--sigma-w-sq", type=float, required=True)
    q.add_argument("--c-max", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("margin", help="misclassification bound at a margin")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--sigma-w-sq", type=float, required=True)
    q.add_argument("--c-max", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("scalar", help="uniform-weight scalar bound")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--sigma-sq", type=float, required=True)
    q.add_argument("--range", type=float, required=True, dest="range_width")
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("dkw", help="uniform rate-error bound")
    q.add_argument("--n", type=int, required=True, dest="n_cal")
    q.add_argument("--delta", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("tau05", help="half-probability threshold error bound")
    q.add_argument("--eps-pi", type=float, required=True)
    q.add_argument("--c-min", type=float, required=True)
    q.add_argument("--flat-width", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:
        return args.handler(args)
    except ThresholdUnreachableError as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return 3
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
