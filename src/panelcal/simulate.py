"""Monte-Carlo validation of the bounds and of threshold calibration.

Synthetic review cohorts draw a latent quality per paper and add
independent Gaussian reviewer noise, optionally clipped into the score
range.  Three experiments run over such cohorts:

* margins: empirical misclassification per margin bin against the
  concentration bound, across panel sizes (panels are nested, so larger
  panels extend smaller ones on the same papers);
* threshold-error: bootstrap of the tau_05 calibration error versus
  calibration-set size over a fixed synthetic population;
* variance: empirical consensus-noise variance versus panel size next
  to the range-based proxy (b - a)^2 / M.

Every experiment is deterministic given its seed.  The check_* functions
return human-readable failure strings; empty means the property held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import calibrate
from .bounds import margin_misclassification_bound, scalar_bound_inputs
from .calibrate import Pool, ThresholdUnreachableError, _table
from .core import NoiseProfile, ReviewerWeights
from .records import CalibrationTable

__all__ = [
    "LatentDistribution",
    "CohortSpec",
    "Cohort",
    "MarginBinRow",
    "ThresholdErrorRow",
    "VarianceRow",
    "PopulationSettings",
    "generate_cohort",
    "slice_cohort",
    "margin_experiment",
    "margin_suite",
    "synthetic_calibration_population",
    "threshold_bootstrap",
    "variance_experiment",
    "check_margin_dominance",
    "check_margin_ordering",
    "check_threshold_rows",
    "check_variance_rows",
    "error_curve_slope",
]

_CLIP_MODES = ("clip", "none", "reject-resample")
_RESAMPLE_ROUNDS = 1000


@dataclass(frozen=True)
class LatentDistribution:
    """Distribution of the per-paper latent quality."""

    kind: str
    param_a: float
    param_b: float

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"kind: must be 'uniform' or 'gaussian', got {self.kind!r}")
        a, b = float(self.param_a), float(self.param_b)
        object.__setattr__(self, "param_a", a)
        object.__setattr__(self, "param_b", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("param_a: distribution parameters must be finite")
        if self.kind == "uniform" and not a < b:
            raise ValueError(f"param_a: uniform needs lo < hi, got ({a}, {b})")
        if self.kind == "gaussian" and not b > 0:
            raise ValueError(f"param_b: gaussian needs sd > 0, got {b}")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "LatentDistribution":
        return cls("uniform", lo, hi)

    @classmethod
    def gaussian(cls, mean: float, sd: float) -> "LatentDistribution":
        return cls("gaussian", mean, sd)


@dataclass(frozen=True)
class CohortSpec:
    """Full recipe for one synthetic review cohort."""

    n_papers: int
    m_reviewers: int
    latent: LatentDistribution
    noise: NoiseProfile
    clip_mode: str = "clip"
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.n_papers, int) or self.n_papers < 1:
            raise ValueError(f"n_papers: must be an integer >= 1, got {self.n_papers!r}")
        if not isinstance(self.m_reviewers, int) or self.m_reviewers < 1:
            raise ValueError(f"m_reviewers: must be an integer >= 1, got {self.m_reviewers!r}")
        if self.noise.reviewer_count != self.m_reviewers:
            raise ValueError(
                f"noise: expected {self.m_reviewers} per-reviewer variances, "
                f"got {self.noise.reviewer_count}"
            )
        if self.clip_mode not in _CLIP_MODES:
            raise ValueError(f"clip_mode: must be one of {_CLIP_MODES}, got {self.clip_mode!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed: must be an integer, got {self.seed!r}")
        lo, hi = self.noise.scalar_bounds
        if self.latent.kind == "uniform":
            if self.latent.param_a < lo or self.latent.param_b > hi:
                raise ValueError(
                    "latent: uniform support must sit inside the scalar score bounds"
                )
        else:
            if not lo <= self.latent.param_a <= hi:
                raise ValueError("latent: gaussian mean must sit inside the scalar score bounds")


@dataclass(frozen=True, eq=False)
class Cohort:
    """Realized cohort: latent qualities (n,) and reviewer scores (n, M)."""

    latent: np.ndarray
    scores: np.ndarray
    spec: CohortSpec


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
class ThresholdErrorRow:
    """Bootstrap of |tau_05 estimate - population tau_05| at one n_cal."""

    n_cal: int
    mean_abs_err: float
    stderr: float
    failures: int


@dataclass(frozen=True)
class VarianceRow:
    """Consensus-noise variance at one panel size, with the range proxy."""

    m: int
    var_empirical: float
    proxy: float


@dataclass(frozen=True)
class PopulationSettings:
    """Recipe for the synthetic human-labeled calibration population.

    The cohort's papers are the population.  Human accepts are Bernoulli
    with logistic probability
    1 / (1 + exp(-link_slope * (latent - link_midpoint))).
    """

    cohort: CohortSpec
    link_midpoint: float
    link_slope: float

    def __post_init__(self) -> None:
        if self.cohort.n_papers < 2:
            raise ValueError(f"size: must be >= 2, got {self.cohort.n_papers}")
        if not math.isfinite(self.link_midpoint):
            raise ValueError(f"link_midpoint: must be finite, got {self.link_midpoint!r}")
        if not (math.isfinite(self.link_slope) and self.link_slope > 0):
            raise ValueError(f"link_slope: must be finite and > 0, got {self.link_slope!r}")


def generate_cohort(spec: CohortSpec) -> Cohort:
    """Draw a cohort deterministically from the spec's seed.

    Latent qualities and reviewer noise come from independent child
    streams of the seed, so cohorts that differ only in m_reviewers share
    the same latent draw.
    """
    latent_seed, noise_seed = np.random.SeedSequence(spec.seed).spawn(2)
    latent_rng = np.random.default_rng(latent_seed)
    noise_rng = np.random.default_rng(noise_seed)
    lo, hi = spec.noise.scalar_bounds

    if spec.latent.kind == "uniform":
        latent = latent_rng.uniform(spec.latent.param_a, spec.latent.param_b, spec.n_papers)
    else:
        # gaussian latents are clipped into the score range so that the
        # latent quality is itself a representable score
        latent = np.clip(
            latent_rng.normal(spec.latent.param_a, spec.latent.param_b, spec.n_papers),
            lo,
            hi,
        )

    sd = np.sqrt(np.asarray(spec.noise.per_reviewer_variance, dtype=float))
    noise = noise_rng.standard_normal((spec.n_papers, spec.m_reviewers)) * sd
    scores = latent[:, None] + noise

    if spec.clip_mode == "clip":
        np.clip(scores, lo, hi, out=scores)
    elif spec.clip_mode == "reject-resample":
        latent_full = np.broadcast_to(latent[:, None], scores.shape)
        sd_full = np.broadcast_to(sd, scores.shape)
        for _ in range(_RESAMPLE_ROUNDS):
            mask = (scores < lo) | (scores > hi)
            if not mask.any():
                break
            redraw = noise_rng.standard_normal(int(mask.sum())) * sd_full[mask]
            scores[mask] = latent_full[mask] + redraw
        else:
            raise RuntimeError(
                f"reject-resample did not converge in {_RESAMPLE_ROUNDS} rounds"
            )
    return Cohort(latent=latent, scores=scores, spec=spec)


def slice_cohort(cohort: Cohort, m: int) -> Cohort:
    """Restrict a cohort to its first ``m`` reviewers (same papers)."""
    spec = cohort.spec
    if not isinstance(m, int) or not 1 <= m <= spec.m_reviewers:
        raise ValueError(f"m: must be an integer in [1, {spec.m_reviewers}], got {m!r}")
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
    if len(weights) != spec.m_reviewers:
        raise ValueError(
            f"weights: expected {spec.m_reviewers} entries, got {len(weights)}"
        )
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    edges = np.asarray(bin_edges, dtype=float)
    if edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin_edges: need at least 2 strictly increasing edges")
    if edges[0] < 0:
        raise ValueError("bin_edges: margins are non-negative; first edge must be >= 0")

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
        if count:
            p = float(mismatch[sel].mean())
            se = math.sqrt(p * (1.0 - p) / count)
            rows.append(
                MarginBinRow(
                    float(edges[b]), float(edges[b + 1]), float(mid), p, se, bound, count, spec.m_reviewers
                )
            )
        else:
            rows.append(
                MarginBinRow(
                    float(edges[b]), float(edges[b + 1]), float(mid), None, None, bound, 0, spec.m_reviewers
                )
            )
    return rows


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
    sizes = sorted({int(m) for m in m_grid})
    if not sizes:
        raise ValueError("m_grid: must be non-empty")
    if sizes[-1] != spec.m_reviewers:
        raise ValueError(
            f"m_grid: largest entry must equal spec.m_reviewers={spec.m_reviewers}"
        )
    cohort = generate_cohort(spec)
    rows: list[MarginBinRow] = []
    for m in sizes:
        sub = slice_cohort(cohort, m)
        rows.extend(
            margin_experiment(sub, ReviewerWeights.uniform(m), threshold, bin_edges)
        )
    return rows


def synthetic_calibration_population(settings: PopulationSettings) -> CalibrationTable:
    """Synthetic population of (agent score, human accept, status) records.

    The agent score is the uniform consensus of the cohort's reviewer
    scores; human accepts follow the logistic link on the latent quality
    from an independent stream; status mirrors the human decision.  The
    records are ``pop-1`` to ``pop-N``, zero-padded, in a table without a
    file.
    """
    size = settings.cohort.n_papers
    cohort = generate_cohort(settings.cohort)
    label_rng = np.random.default_rng(np.random.SeedSequence([settings.cohort.seed, 1]))
    prob = 1.0 / (1.0 + np.exp(-settings.link_slope * (cohort.latent - settings.link_midpoint)))
    accepts = label_rng.random(size) < prob
    width = len(str(size))
    return CalibrationTable(
        path="",
        ids=tuple(map(f"pop-%0{width}d".__mod__, range(1, size + 1))),
        lines=np.arange(1, size + 1),
        scores=cohort.scores.mean(axis=1),
        accepts=accepts,
        statuses=tuple("accept" if a else "reject" for a in accepts.tolist()),
    )


# picked elements per block of bootstrap replicates, which bounds the
# kernel's temporary arrays at a few MB whatever the grid and replicate count
_BLOCK_ELEMENTS = 1 << 16


def _tau05_ranks(keys: np.ndarray) -> np.ndarray:
    """Row-wise ``tau05_from_scores`` on packed keys ``rank << 1 | accept``.

    Each row of ``keys`` is one sample; ``rank`` indexes the sorted distinct
    scores.  Returns each row's tau_05 as a rank, or -1 where the curve
    never reaches 1/2.  Sorted, a row's elements run by rank, so the suffix
    sum T of (1 - 2 accept) at the start of each rank group is that score's
    N - 2A, and the suffix sum of T over the group starts is the level S of
    ``tau05_from_scores``.  The first argmin of S over the starts is tau_05
    unless S > 0 there, where the S = 0 past the last score wins instead.
    """
    keys = np.sort(keys, axis=1)  # equal keys are identical integers: stability cannot matter
    rank = keys >> 1
    tail = np.cumsum((1 - 2 * (keys & 1))[:, ::-1], axis=1)[:, ::-1]
    start = np.empty(keys.shape, dtype=bool)
    start[:, 0] = True
    np.not_equal(rank[:, 1:], rank[:, :-1], out=start[:, 1:])
    level = np.cumsum(np.where(start, tail, 0)[:, ::-1], axis=1)[:, ::-1]
    level[~start] = np.iinfo(np.int64).max
    rows = np.arange(len(keys))
    pos = np.argmin(level, axis=1)
    return np.where(level[rows, pos] > 0, -1, rank[rows, pos])


def threshold_bootstrap(
    population: Pool,
    n_cal_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> list[ThresholdErrorRow]:
    """Bootstrap |tau_05(subsample) - tau_05(population)| per n_cal.

    The population is a record list or a ``CalibrationTable``.  Subsamples
    are uniform without replacement, one ``rng.choice`` per replicate; each
    block of replicates is then fitted at once by the level-set rule of
    ``tau05_from_scores``.  Replicates whose curve never reaches 1/2 count
    as failures and are excluded from the mean; ThresholdUnreachableError
    is raised when every replicate of one n_cal fails.
    """
    table = _table(population)
    size = len(table)
    if not size:
        raise ValueError("population: must be non-empty")
    grid = [int(n) for n in n_cal_grid]
    if not grid:
        raise ValueError("n_cal_grid: must be non-empty")
    for n in grid:
        if not 2 <= n <= size:
            raise ValueError(f"n_cal_grid: entries must lie in [2, {size}], got {n}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("n_cal_grid: must be strictly increasing")
    if not isinstance(replicates, int) or replicates < 2:
        raise ValueError(f"replicates: must be an integer >= 2, got {replicates!r}")

    # looked up on the module at call time, so a patched calibrate.tau05_from_scores is seen
    tau_true = calibrate.tau05_from_scores(table.scores, table.accepts)
    uniq, rank = np.unique(table.scores, return_inverse=True)
    keys = (rank.astype(np.int64) << 1) | table.accepts

    rng = np.random.default_rng(seed)
    rows: list[ThresholdErrorRow] = []
    for n in grid:
        per_block = max(1, _BLOCK_ELEMENTS // n)
        tau_ranks = np.empty(replicates, dtype=np.int64)
        for first in range(0, replicates, per_block):
            picks = np.empty((min(per_block, replicates - first), n), dtype=np.intp)
            for row in picks:
                row[:] = rng.choice(size, size=n, replace=False)
            tau_ranks[first:first + len(picks)] = _tau05_ranks(keys[picks])
        reached = tau_ranks[tau_ranks >= 0]
        if not reached.size:
            raise ThresholdUnreachableError(f"n_cal={n}: every replicate failed to reach 1/2")
        errors = np.abs(uniq[reached] - tau_true)
        mean = float(np.mean(errors))
        stderr = float(np.std(errors, ddof=1) / math.sqrt(errors.size)) if errors.size > 1 else 0.0
        rows.append(
            ThresholdErrorRow(
                n_cal=n, mean_abs_err=mean, stderr=stderr, failures=replicates - reached.size
            )
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
    sizes = sorted({int(m) for m in m_grid})
    if not sizes:
        raise ValueError("m_grid: must be non-empty")
    if sizes[-1] != spec.m_reviewers:
        raise ValueError(
            f"m_grid: largest entry must equal spec.m_reviewers={spec.m_reviewers}"
        )
    cohort = generate_cohort(spec)
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


def check_margin_ordering(rows: Sequence[MarginBinRow], min_count: int = 50) -> list[str]:
    """Largest-M curve must sit at or below the smallest-M curve per bin.

    Only bins whose count reaches ``min_count`` for both panel sizes are
    compared.
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
        if row_lo.count < min_count or row_hi.count < min_count:
            continue
        assert row_lo.empirical is not None and row_hi.empirical is not None
        if row_hi.empirical > row_lo.empirical:
            failures.append(
                f"bin [{lo:g}, {hi:g}]: m={high} empirical {row_hi.empirical:.6g} "
                f"exceeds m={low} empirical {row_lo.empirical:.6g}"
            )
    return failures


def error_curve_slope(rows: Sequence[ThresholdErrorRow]) -> float:
    """Least-squares slope of log mean error against log n_cal."""
    if len(rows) < 2:
        raise ValueError("rows: need at least 2 grid points for a slope")
    x = np.log([row.n_cal for row in rows])
    y = np.log([row.mean_abs_err for row in rows])
    return float(np.polyfit(x, y, 1)[0])


def check_threshold_rows(
    rows: Sequence[ThresholdErrorRow],
    slope_window: tuple[float, float] = (-0.6, -0.4),
) -> list[str]:
    """Error curve must decay like one over root n and be near-monotone.

    Near-monotone: non-increasing in n_cal, allowing at most one
    inversion, and any inversion must stay within the two rows' combined
    standard errors.
    """
    failures = []
    slope = error_curve_slope(rows)
    lo, hi = slope_window
    if not lo <= slope <= hi:
        failures.append(f"log-log slope {slope:.4f} outside [{lo}, {hi}]")
    inversions = 0
    for prev, cur in zip(rows, rows[1:]):
        if cur.mean_abs_err > prev.mean_abs_err:
            inversions += 1
            slack = prev.stderr + cur.stderr
            if cur.mean_abs_err > prev.mean_abs_err + slack:
                failures.append(
                    f"n_cal={cur.n_cal}: error {cur.mean_abs_err:.6g} rose past "
                    f"{prev.mean_abs_err:.6g} by more than the stderr slack {slack:.6g}"
                )
    if inversions > 1:
        failures.append(f"error curve has {inversions} inversions; at most 1 allowed")
    return failures


def check_variance_rows(
    rows: Sequence[VarianceRow],
    m_low: int = 1,
    m_high: int = 3,
    window: tuple[float, float] | None = None,
) -> list[str]:
    """Empirical variance must scale like 1/M; the proxy scales exactly.

    The ratio var(m_low) / var(m_high) has to land inside ``window``,
    which defaults to the ideal ratio m_high / m_low with one sixth of
    relative slack on either side, and proxy * m must agree across rows
    to float tolerance.
    """
    by_m = {row.m: row for row in rows}
    failures = []
    if m_low not in by_m or m_high not in by_m:
        failures.append(f"rows must include m={m_low} and m={m_high}")
        return failures
    ratio = by_m[m_low].var_empirical / by_m[m_high].var_empirical
    if window is None:
        # ordered so the default grid's window comes out exactly (2.5, 3.5)
        window = (m_high * 5.0 / (6.0 * m_low), m_high * 7.0 / (6.0 * m_low))
    lo, hi = window
    if not lo <= ratio <= hi:
        failures.append(
            f"variance ratio m={m_low} over m={m_high} is {ratio:.4f}, outside [{lo}, {hi}]"
        )
    reference = rows[0].proxy * rows[0].m
    for row in rows[1:]:
        if abs(row.proxy * row.m - reference) > 1e-9 * max(1.0, abs(reference)):
            failures.append(f"m={row.m}: proxy does not scale exactly as 1/m")
    return failures
