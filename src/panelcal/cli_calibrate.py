"""``panelcal calibrate``: fit thresholds against a human-labeled record pool."""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from typing import Sequence

from . import bounds, calibrate, config, metrics, records
from .cli import _config_error, _Run
from .core import DecisionThresholds, RecordError
from .records import CalibrationTable


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
