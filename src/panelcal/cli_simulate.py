"""``panelcal simulate``: the Monte-Carlo validation experiments."""

from __future__ import annotations

import argparse
from dataclasses import fields, replace
from typing import Sequence

from . import config, simulate, writers
from .rules import RecordError
from .rundir import _Run


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
    try:
        m_max = max(simulate.panel_sizes(m_grid))
    except ValueError as exc:
        name = "--m" if args.m is not None else config.key_name(f"{path}.m_grid")
        raise config.rename(exc, {"m_grid": name}) from None
    if m_max != spec.m_reviewers:
        sigma = spec.noise.per_reviewer_variance[0]
        noise = simulate.NoiseProfile((sigma,) * m_max, spec.noise.scalar_bounds)
        spec = replace(spec, m_reviewers=m_max, noise=noise)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec, m_grid


def _finish(
    run: _Run, name: str, row_type: type, rows: Sequence[object],
    checks: Sequence[tuple[str, list[str]]], head: str = "",
) -> int:
    """Write ``rows`` and the checks, finish the run and echo the checks; 0, or 4 if one failed.

    The rows go to CSV ``name`` under a header of ``row_type``'s field
    names.  ``checks.txt`` holds ``head``, then a PASS or FAIL line per
    named check with its failures indented below it.
    """
    headers = [field.name for field in fields(row_type)]
    run.write(name, writers.csv_text(headers, [[getattr(r, h) for r in rows] for h in headers]))
    text = head + "".join(
        f"{'FAIL' if failures else 'PASS'}: {check}\n" + "".join(f"  {f}\n" for f in failures)
        for check, failures in checks
    )
    run.write("checks.txt", text)
    run.finish()
    print(text, end="")
    return 4 if any(failures for _, failures in checks) else 0


def cmd_simulate_margins(args: argparse.Namespace) -> int:
    path = "simulate.margins"
    [settings] = config.load(args.config, path)
    spec, m_grid = _cohort_settings(args, path, settings["spec"], settings["m_grid"])
    run = _Run(args.out, "simulate-margins", spec.seed, args.config, [])
    rows = simulate.margin_suite(spec, m_grid, settings["threshold"], settings["bin_edges"])
    return _finish(run, "margin_bins.csv", simulate.MarginBinRow, rows, [
        ("empirical misclassification within bound (3 SE slack)", simulate.check_margin_dominance(rows)),
        ("larger panels no worse per bin (count >= 50)", simulate.check_margin_ordering(rows)),
    ])


def cmd_simulate_threshold_error(args: argparse.Namespace) -> int:
    path = "simulate.threshold_error"
    [section] = config.load(args.config, path)
    settings = section["population"]
    grid = section["n_cal_grid"] if args.grid is None else _parse_int_list(args.grid, "--grid")
    replicates = section["replicates"] if args.replicates is None else args.replicates
    seed = section["seed"] if args.seed is None else args.seed
    try:
        simulate.error_curve_sizes(simulate.calibration_sizes(grid, settings.cohort.n_papers))
    except ValueError as exc:
        names = {"n_cal_grid": "--grid" if args.grid is not None else config.key_name(f"{path}.n_cal_grid")}
        raise config.rename(exc, names) from None

    run = _Run(args.out, "simulate-threshold-error", seed, args.config, [])
    population = simulate.synthetic_calibration_population(settings)
    rows = simulate.threshold_bootstrap(population, grid, replicates, seed)
    head = f"log-log slope: {simulate.error_curve_slope(rows):.4f}\n"
    reference = [r for r in rows if r.n_cal == 200]
    if reference:
        head += f"mean abs error at n_cal=200: {reference[0].mean_abs_err:.4f}\n"
    return _finish(run, "threshold_error.csv", simulate.ThresholdErrorRow, rows, [
        ("error decays like 1/sqrt(n_cal), near-monotone", simulate.check_threshold_rows(rows)),
    ], head)


def cmd_simulate_variance(args: argparse.Namespace) -> int:
    path = "simulate.variance"
    [settings] = config.load(args.config, path)
    spec, m_grid = _cohort_settings(args, path, settings["spec"], settings["m_grid"])
    run = _Run(args.out, "simulate-variance", spec.seed, args.config, [])
    try:
        rows = simulate.variance_experiment(spec, m_grid)
    except ValueError as exc:  # the spec checks; a failed reject-resample keeps its words
        names = {key: config.key_name(f"{path}.spec.{key}") for key in ("n_papers", "noise")}
        raise config.rename(exc, names) from None
    low, high = min(m_grid), max(m_grid)
    return _finish(run, "variance.csv", simulate.VarianceRow, rows, [
        ("consensus variance scales like 1/M", simulate.check_variance_rows(rows, m_low=low, m_high=high)),
    ])
