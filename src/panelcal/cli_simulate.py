"""``panelcal simulate``: the Monte-Carlo validation experiments."""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Sequence

from . import config, metrics, simulate
from .cli import _Run
from .core import NoiseProfile, RecordError


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
    if spec.n_papers < 2:
        raise RecordError(
            f"config: {path}.spec.n_papers: a variance needs at least 2 papers, got {spec.n_papers}"
        )

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

