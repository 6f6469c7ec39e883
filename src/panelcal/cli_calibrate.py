"""``panelcal calibrate``: fit thresholds against a human-labeled record pool."""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict

from . import bounds, calibrate, config, writers
from .core import DecisionThresholds
from .rundir import _Run


def cmd_calibrate(args: argparse.Namespace) -> int:
    target_rate, delta, stratify = config.load(args.config, "target_rate", "delta", "stratify")
    run = _Run(args.out, "calibrate", args.seed, args.config, [])
    pool = run.load("pool", args.records)
    plan, used = None, pool
    if stratify is not None:
        try:
            plan, used = calibrate.stratify(pool, **stratify, seed=0 if args.seed is None else args.seed)
        except ValueError as exc:  # a pool record's error names its line
            raise config.rename(exc, {"n_cal": config.key_name("stratify.n_cal")}) from None

    tails = calibrate.TailCounts.of(used.scores, used.accepts)
    tau_rate = tails.rate_threshold(target_rate)
    achieved = calibrate.empirical_acceptance(used.scores, tau_rate)
    tau05 = tails.tau05()
    t, raw, weight, fitted = tails.curve()
    thresholds = DecisionThresholds(tau_rate, tau05, target_rate, calibration_size=len(used))

    payload = {**asdict(thresholds), "stratified": plan is not None, "seed": args.seed}
    run.write("thresholds.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if plan is not None:
        run.write("plan.json", json.dumps(asdict(plan), indent=2, sort_keys=True) + "\n")

    headers = ["threshold", "raw_estimate", "fitted", "weight"]
    run.write("curve.csv", writers.csv_text(headers, [t, raw, fitted, weight]))

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
        f"curve max fitted:    {fitted[-1]:.6g}",
        f"rate error bound:    {eps:.6g}  (delta={delta:.6g})",
        "",
    ]
    run.write("calibration_report.txt", "\n".join(lines))
    run.finish()
    return 0
