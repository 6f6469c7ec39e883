"""The cohort experiments over nested panel sizes: margins and variance.

* margins: empirical misclassification per margin bin against the
  concentration bound, across panel sizes (panels are nested, so larger
  panels extend smaller ones on the same papers);
* variance: empirical consensus-noise variance versus panel size next
  to the range-based proxy (b - a)^2 / M.

Both draw one cohort with ``simulate.generate_cohort``, called through
the module so that a tracer that rebinds it there sees the call.  ``simulate``
exports these names and imports this module on first use of one, so
``simulate threshold-error`` loads neither this module nor ``bounds``.
The check_* functions return human-readable failure strings; empty means
the property held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import simulate
from .bounds import margin_misclassification_bound, scalar_bound_inputs
from .core import NoiseProfile, ReviewerWeights
from .rules import finite, increasing_edges, integer, sequence
from .simulate import Cohort, CohortSpec

__all__ = [
    "MarginBinRow",
    "VarianceRow",
    "slice_cohort",
    "margin_experiment",
    "margin_bin_edges",
    "panel_sizes",
    "margin_suite",
    "variance_experiment",
    "check_margin_dominance",
    "check_margin_ordering",
    "check_variance_rows",
]

# a margin bin is compared across panel sizes only where both hold this many papers
_MIN_BIN_COUNT = 50


@dataclass(frozen=True)
class MarginBinRow:
    """One margin bin: empirical misclassification next to the bound."""

    gamma_lo: float
    gamma_hi: float
    gamma_mid: float
    empirical: float | None
    stderr: float | None
    bound: float
    count: int
    m: int


@dataclass(frozen=True)
class VarianceRow:
    """Consensus-noise variance at one panel size, with the range proxy."""

    m: int
    var_empirical: float
    proxy: float


def slice_cohort(cohort: Cohort, m: int) -> Cohort:
    """Restrict a cohort to its first ``m`` reviewers (same papers)."""
    spec = cohort.spec
    m = integer("m", m, 1, spec.m_reviewers)
    sub_noise = NoiseProfile(
        spec.noise.per_reviewer_variance[:m], spec.noise.scalar_bounds
    )
    sub_spec = replace(spec, m_reviewers=m, noise=sub_noise)
    return Cohort(latent=cohort.latent, scores=cohort.scores[:, :m], spec=sub_spec)


def margin_experiment(
    cohort: Cohort,
    weights: ReviewerWeights,
    threshold: float,
    bin_edges: Sequence[float],
) -> list[MarginBinRow]:
    """Empirical misclassification per margin bin against the bound.

    Ground truth is latent >= threshold; the decision is consensus >=
    threshold.  The bound column evaluates the concentration bound at
    each bin midpoint with the cohort's noise profile.  Papers whose
    margin falls outside the binning range are not counted.
    """
    spec = cohort.spec
    sequence("weights", weights.weights, "weights", spec.m_reviewers)
    threshold = finite("threshold", threshold)
    edges = margin_bin_edges(bin_edges)

    consensus = cohort.scores @ np.asarray(weights.weights)
    gamma = np.abs(cohort.latent - threshold)
    mismatch = (cohort.latent >= threshold) != (consensus >= threshold)
    in_range = (gamma >= edges[0]) & (gamma <= edges[-1])
    idx = np.clip(np.searchsorted(edges, gamma, side="right") - 1, 0, edges.size - 2)

    inputs = scalar_bound_inputs(weights, spec.noise)
    rows: list[MarginBinRow] = []
    for b in range(edges.size - 1):
        sel = in_range & (idx == b)
        count = int(sel.sum())
        mid = 0.5 * (edges[b] + edges[b + 1])
        bound = margin_misclassification_bound(mid, inputs)
        p = float(mismatch[sel].mean()) if count else None
        se = math.sqrt(p * (1.0 - p) / count) if count else None
        rows.append(
            MarginBinRow(
                float(edges[b]), float(edges[b + 1]), float(mid), p, se, bound, count, spec.m_reviewers
            )
        )
    return rows


def margin_bin_edges(bin_edges: Sequence[float]) -> np.ndarray:
    """``bin_edges`` as margin bins: ``rules.increasing_edges``, the first >= 0."""
    edges = np.array(increasing_edges("bin_edges", bin_edges))
    if edges[0] < 0:
        raise ValueError(f"bin_edges: margins are non-negative; first edge must be >= 0, got {edges.tolist()}")
    return edges


def panel_sizes(m_grid: Sequence[int]) -> list[int]:
    """The distinct panel sizes of ``m_grid``, ascending; it must hold integers >= 1, at least one."""
    grid = list(sequence("m_grid", m_grid, "integers"))
    try:
        if grid:
            return sorted({integer("m_grid", m, 1) for m in grid})
    except ValueError:
        pass
    raise ValueError(f"m_grid: panel sizes must be integers >= 1, got {grid}")


def _panel_sizes(spec: CohortSpec, m_grid: Sequence[int]) -> list[int]:
    """``panel_sizes(m_grid)``, whose largest must be the cohort's."""
    sizes = panel_sizes(m_grid)
    if sizes[-1] != spec.m_reviewers:
        raise ValueError(f"m_grid: largest entry must equal spec.m_reviewers={spec.m_reviewers}")
    return sizes


def margin_suite(
    spec: CohortSpec,
    m_grid: Sequence[int],
    threshold: float,
    bin_edges: Sequence[float],
) -> list[MarginBinRow]:
    """Margin experiment across nested panel sizes with uniform weights.

    One cohort is drawn at the largest panel size and smaller panels are
    column slices of it, so per-bin comparisons across M are paired on
    the same papers.
    """
    sizes = _panel_sizes(spec, m_grid)
    cohort = simulate.generate_cohort(spec)
    rows: list[MarginBinRow] = []
    for m in sizes:
        sub = slice_cohort(cohort, m)
        rows.extend(
            margin_experiment(sub, ReviewerWeights.uniform(m), threshold, bin_edges)
        )
    return rows


def variance_experiment(spec: CohortSpec, m_grid: Sequence[int]) -> list[VarianceRow]:
    """Empirical consensus-noise variance per panel size, with the proxy.

    Panels are nested slices of one cohort.  The proxy column is the
    range-based variance surrogate (b - a)^2 / M.  Requires a homogeneous
    noise profile (equal per-reviewer variances).
    """
    if spec.n_papers < 2:
        raise ValueError(f"n_papers: a variance needs at least 2 papers, got {spec.n_papers}")
    variances = spec.noise.per_reviewer_variance
    if len(set(variances)) != 1:
        raise ValueError("noise: variance experiment needs equal per-reviewer variances")
    sizes = _panel_sizes(spec, m_grid)
    cohort = simulate.generate_cohort(spec)
    width = spec.noise.range_width
    rows: list[VarianceRow] = []
    for m in sizes:
        consensus = cohort.scores[:, :m].mean(axis=1)
        residual = consensus - cohort.latent
        rows.append(
            VarianceRow(
                m=m,
                var_empirical=float(np.var(residual, ddof=1)),
                proxy=width * width / m,
            )
        )
    return rows


def check_margin_dominance(rows: Sequence[MarginBinRow]) -> list[str]:
    """Empirical rate must not exceed the bound plus 3 binomial SEs."""
    failures = []
    for row in rows:
        if row.empirical is None or row.stderr is None:
            continue
        limit = row.bound + 3.0 * row.stderr
        if row.empirical > limit:
            failures.append(
                f"m={row.m} bin [{row.gamma_lo:g}, {row.gamma_hi:g}]: "
                f"empirical {row.empirical:.6g} exceeds bound {row.bound:.6g} "
                f"+ 3*stderr {row.stderr:.6g}"
            )
    return failures


def check_margin_ordering(rows: Sequence[MarginBinRow]) -> list[str]:
    """Largest-M curve must sit at or below the smallest-M curve per bin.

    Only bins whose count reaches ``_MIN_BIN_COUNT`` for both panel sizes
    are compared.
    """
    sizes = sorted({row.m for row in rows})
    if len(sizes) < 2:
        return []
    low, high = sizes[0], sizes[-1]
    by_bin: dict[tuple[float, float], dict[int, MarginBinRow]] = {}
    for row in rows:
        by_bin.setdefault((row.gamma_lo, row.gamma_hi), {})[row.m] = row
    failures = []
    for (lo, hi), group in sorted(by_bin.items()):
        if low not in group or high not in group:
            continue
        row_lo, row_hi = group[low], group[high]
        if row_lo.count < _MIN_BIN_COUNT or row_hi.count < _MIN_BIN_COUNT:
            continue
        assert row_lo.empirical is not None and row_hi.empirical is not None
        if row_hi.empirical > row_lo.empirical:
            failures.append(
                f"bin [{lo:g}, {hi:g}]: m={high} empirical {row_hi.empirical:.6g} "
                f"exceeds m={low} empirical {row_lo.empirical:.6g}"
            )
    return failures


def check_variance_rows(rows: Sequence[VarianceRow], m_low: int = 1, m_high: int = 3) -> list[str]:
    """Empirical variance must scale like 1/M; the proxy scales exactly.

    The ratio var(m_low) / var(m_high) has to land within one sixth of
    relative slack on either side of the ideal ratio m_high / m_low, and
    proxy * m must agree across rows to float tolerance.
    """
    by_m = {row.m: row for row in rows}
    failures = []
    if m_low not in by_m or m_high not in by_m:
        failures.append(f"rows must include m={m_low} and m={m_high}")
        return failures
    ratio = by_m[m_low].var_empirical / by_m[m_high].var_empirical
    # ordered so the default grid's window comes out exactly (2.5, 3.5)
    lo, hi = m_high * 5.0 / (6.0 * m_low), m_high * 7.0 / (6.0 * m_low)
    if not lo <= ratio <= hi:
        failures.append(
            f"variance ratio m={m_low} over m={m_high} is {ratio:.4f}, outside [{lo}, {hi}]"
        )
    reference = rows[0].proxy * rows[0].m
    for row in rows[1:]:
        if abs(row.proxy * row.m - reference) > 1e-9 * max(1.0, abs(reference)):
            failures.append(f"m={row.m}: proxy does not scale exactly as 1/m")
    return failures
