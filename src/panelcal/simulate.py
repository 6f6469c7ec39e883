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

This module holds the cohort (with its ``NoiseProfile``, which ``core``
re-exports), the calibration population and the threshold-error
bootstrap.  The margin and variance experiments are
defined in ``panelcal.experiments``, which this module exports and imports
on first use of one of its names, so ``simulate threshold-error`` loads
neither it nor ``bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _lazy, calibrate
from .calibrate import Pool, ThresholdUnreachableError, _table
from .rules import _fail, finite, integer, non_negative, positive, sequence

__all__ = [
    "NoiseProfile",
    "LatentDistribution",
    "CohortSpec",
    "Cohort",
    "MarginBinRow",
    "ThresholdErrorRow",
    "VarianceRow",
    "PopulationSettings",
    "Population",
    "generate_cohort",
    "slice_cohort",
    "margin_experiment",
    "margin_bin_edges",
    "panel_sizes",
    "margin_suite",
    "synthetic_calibration_population",
    "calibration_sizes",
    "threshold_bootstrap",
    "variance_experiment",
    "check_margin_dominance",
    "check_margin_ordering",
    "check_threshold_rows",
    "check_variance_rows",
    "error_curve_sizes",
    "error_curve_slope",
]

__getattr__, __dir__ = _lazy(__name__, {
    "experiments": ("MarginBinRow", "VarianceRow", "slice_cohort", "margin_experiment", "margin_bin_edges",
                    "panel_sizes", "margin_suite", "variance_experiment", "check_margin_dominance",
                    "check_margin_ordering", "check_variance_rows"),
})

_CLIP_MODES = ("clip", "none", "reject-resample")
_RESAMPLE_ROUNDS = 1000
_SLOPE_WINDOW = (-0.6, -0.4)  # the log-log slope of an error curve that decays like 1 / sqrt(n_cal)


@dataclass(frozen=True)
class NoiseProfile:
    """Per-reviewer score-noise variances plus the shared scalar score range."""

    per_reviewer_variance: tuple[float, ...]
    scalar_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        variances = non_negative.each("per_reviewer_variance", self.per_reviewer_variance, non_empty=True)
        object.__setattr__(self, "per_reviewer_variance", variances)
        bounds = finite.each("scalar_bounds", self.scalar_bounds)
        object.__setattr__(self, "scalar_bounds", bounds)
        if len(bounds) != 2 or not bounds[0] < bounds[1]:
            _fail("scalar_bounds", f"must be a pair lo < hi, got {bounds}")

    @property
    def reviewer_count(self) -> int:
        return len(self.per_reviewer_variance)

    @property
    def range_width(self) -> float:
        return self.scalar_bounds[1] - self.scalar_bounds[0]


@dataclass(frozen=True)
class LatentDistribution:
    """Distribution of the per-paper latent quality."""

    kind: str
    param_a: float
    param_b: float

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "gaussian"):
            raise ValueError(f"kind: must be 'uniform' or 'gaussian', got {self.kind!r}")
        a = finite("param_a", self.param_a)
        b = (positive if self.kind == "gaussian" else finite)("param_b", self.param_b)  # a gaussian's sd
        object.__setattr__(self, "param_a", a)
        object.__setattr__(self, "param_b", b)
        if self.kind == "uniform" and not a < b:
            raise ValueError(f"param_a: uniform needs lo < hi, got ({a}, {b})")

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
        for name in ("n_papers", "m_reviewers"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 1))
        if self.noise.reviewer_count != self.m_reviewers:
            raise ValueError(
                f"noise: expected {self.m_reviewers} per-reviewer variances, "
                f"got {self.noise.reviewer_count}"
            )
        if self.clip_mode not in _CLIP_MODES:
            raise ValueError(f"clip_mode: must be one of {_CLIP_MODES}, got {self.clip_mode!r}")
        object.__setattr__(self, "seed", integer("seed", self.seed, 0))
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
class ThresholdErrorRow:
    """Bootstrap of |tau_05 estimate - population tau_05| at one n_cal."""

    n_cal: int
    mean_abs_err: float
    stderr: float
    failures: int


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
        object.__setattr__(self, "link_midpoint", finite("link_midpoint", self.link_midpoint))
        object.__setattr__(self, "link_slope", positive("link_slope", self.link_slope))


@dataclass(frozen=True, eq=False)
class Population:
    """A synthetic calibration population as its two columns: agent scores (N,) and human accepts (N,) bool."""

    scores: np.ndarray
    accepts: np.ndarray

    def __len__(self) -> int:
        return self.scores.size


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
            raise ValueError(
                f"clip_mode: reject-resample did not converge in {_RESAMPLE_ROUNDS} rounds"
            )
    return Cohort(latent=latent, scores=scores, spec=spec)


def synthetic_calibration_population(settings: PopulationSettings) -> Population:
    """Synthetic population of (agent score, human accept) pairs, one per paper of the cohort.

    The agent score is the uniform consensus of the cohort's reviewer
    scores; human accepts follow the logistic link on the latent quality
    from an independent stream.  Only these two columns are built: the
    bootstrap reads nothing else.
    """
    size = settings.cohort.n_papers
    cohort = generate_cohort(settings.cohort)
    label_rng = np.random.default_rng(np.random.SeedSequence([settings.cohort.seed, 1]))
    with np.errstate(over="ignore"):  # a steep link overflows to probabilities of exactly 0 or 1
        prob = 1.0 / (1.0 + np.exp(-settings.link_slope * (cohort.latent - settings.link_midpoint)))
    return Population(scores=cohort.scores.mean(axis=1), accepts=label_rng.random(size) < prob)


def calibration_sizes(n_cal_grid: Sequence[int], size: int) -> list[int]:
    """``n_cal_grid`` as ints: at least one, strictly increasing, each in [2, ``size``]."""
    grid = list(sequence("n_cal_grid", n_cal_grid, "integers"))
    try:
        sizes = [integer("n_cal_grid", n, 2, size) for n in grid]
        if sizes and sizes == sorted(set(sizes)):
            return sizes
    except ValueError:
        pass
    raise ValueError(f"n_cal_grid: calibration sizes must be strictly increasing integers in [2, {size}], "
                     f"got {grid}")


# picked elements per block of bootstrap replicates, which bounds the
# kernel's temporary arrays at a few MB whatever the grid and replicate count
_BLOCK_ELEMENTS = 1 << 16


def threshold_bootstrap(
    population: Pool | Population,
    n_cal_grid: Sequence[int],
    replicates: int,
    seed: int,
) -> list[ThresholdErrorRow]:
    """Bootstrap |tau_05(subsample) - tau_05(population)| per n_cal.

    The population, a ``Population``, a record list or a
    ``CalibrationTable``, is read for its scores and accepts only, sorted once
    (``calibrate.TailCounts``) for its tau_05 and packed keys.  Subsamples
    are uniform without replacement, one ``rng.choice`` per replicate, drawn
    with ``seed``, an integer >= 0; each block of replicates is fitted at
    once by ``calibrate._tau05_ranks`` on the picked ``TailCounts.keys``.
    Replicates whose curve never reaches 1/2 count as failures and are
    excluded from the mean; ThresholdUnreachableError is raised when every
    replicate of one n_cal fails.
    """
    columns = population if isinstance(population, Population) else _table("population", population)
    size = len(sequence("population", columns.scores, "calibration records", non_empty=True))
    grid = calibration_sizes(n_cal_grid, size)
    replicates = integer("replicates", replicates, 2)
    seed = integer("seed", seed, 0)

    tails = calibrate.TailCounts.of(columns.scores, columns.accepts)
    tau_true = tails.tau05()

    rng = np.random.default_rng(seed)
    rows: list[ThresholdErrorRow] = []
    for n in grid:
        per_block = max(1, _BLOCK_ELEMENTS // n)
        tau_ranks = np.empty(replicates, dtype=np.int64)
        for first in range(0, replicates, per_block):
            picks = np.empty((min(per_block, replicates - first), n), dtype=np.intp)
            for row in picks:
                row[:] = rng.choice(size, size=n, replace=False)
            tau_ranks[first:first + len(picks)] = calibrate._tau05_ranks(tails.keys[picks])
        reached = tau_ranks[tau_ranks >= 0]
        if not reached.size:
            raise ThresholdUnreachableError(f"n_cal={n}: every replicate failed to reach 1/2")
        errors = np.abs(tails.scores[reached] - tau_true)
        mean = float(np.mean(errors))
        stderr = float(np.std(errors, ddof=1) / math.sqrt(errors.size)) if errors.size > 1 else 0.0
        rows.append(
            ThresholdErrorRow(
                n_cal=n, mean_abs_err=mean, stderr=stderr, failures=replicates - reached.size
            )
        )
    return rows


def error_curve_sizes(sizes: Sequence[int], field: str = "n_cal_grid") -> list[int]:
    """``sizes`` as a list, which must hold at least the 2 calibration sizes of an error curve's slope."""
    sizes = list(sequence(field, sizes, "integers"))
    if len(sizes) < 2:
        raise ValueError(f"{field}: the error curve needs at least 2 calibration sizes, got {sizes}")
    return sizes


def error_curve_slope(rows: Sequence[ThresholdErrorRow]) -> float:
    """Least-squares slope of log mean error against log n_cal; nan if a mean error is 0 (no log)."""
    rows = sequence("rows", rows, "threshold-error rows")
    x = np.log(error_curve_sizes([row.n_cal for row in rows], "rows"))
    if any(row.mean_abs_err == 0 for row in rows):
        return math.nan
    y = np.log([row.mean_abs_err for row in rows])
    return float(np.polyfit(x, y, 1)[0])


def check_threshold_rows(rows: Sequence[ThresholdErrorRow]) -> list[str]:
    """Error curve must decay like one over root n (a log-log slope in ``_SLOPE_WINDOW``) and be near-monotone.

    Near-monotone: non-increasing in n_cal, allowing at most one
    inversion, and any inversion must stay within the two rows' combined
    standard errors.  A row whose mean error is exactly 0 (n_cal equal to
    the population's size draws the whole population) has no logarithm, so
    it fails in place of the slope.
    """
    rows = sequence("rows", rows, "threshold-error rows")
    failures = [f"n_cal={row.n_cal}: mean error 0 has no logarithm, so the log-log slope is undefined"
                for row in rows if row.mean_abs_err == 0]
    slope = error_curve_slope(rows)
    lo, hi = _SLOPE_WINDOW
    if not failures and not lo <= slope <= hi:
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


