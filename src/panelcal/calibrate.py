"""Threshold calibration against a human-labeled record pool.

Two calibrated thresholds come out of this module.  The rate-matching
threshold reproduces a target acceptance rate on the calibration set.
The half-probability threshold tau_05 is the smallest score at which the
isotonic fit of the conditional tail probability

    pi(z) = P(human accepts | agent score >= z)

reaches 1/2, found exactly as a level-set argmin (``tau05_from_scores``);
the PAVA fit (``isotonic_fit``) gives the curve for ``curve.csv``.
Stratified subsampling (score bins crossed with review status,
largest-remainder quotas) builds the calibration set itself.

A pool is either a sequence of ``CalibrationRecord``s or a
``records.CalibrationTable``; either way the work runs on the table's
columns, and a subsample comes back in the form the pool came in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .core import CalibrationRecord, ThresholdUnreachableError
from .records import CalibrationTable

Pool = Union[Sequence[CalibrationRecord], CalibrationTable]

__all__ = [
    "ThresholdUnreachableError",
    "CellQuota",
    "StratificationPlan",
    "IsotonicCurve",
    "cell_populations",
    "allocate_quotas",
    "stratified_sample",
    "stratify",
    "empirical_acceptance",
    "rate_matching_threshold",
    "distinct_scores",
    "tail_probability_points",
    "isotonic_fit",
    "tau_05",
    "tau05_from_scores",
    "fit_tau05",
]

logger = logging.getLogger(__name__)

_MONOTONE_TOL = 1e-12


@dataclass(frozen=True)
class CellQuota:
    """Allocation for one (score bin, status) cell."""

    bin_index: int
    status: str
    population: int
    quota: int

    def __post_init__(self) -> None:
        if not isinstance(self.bin_index, int) or self.bin_index < 0:
            raise ValueError(f"bin_index: must be an integer >= 0, got {self.bin_index!r}")
        if not isinstance(self.status, str) or not self.status:
            raise ValueError("status: must be a non-empty string")
        if not isinstance(self.population, int) or self.population < 0:
            raise ValueError(f"population: must be an integer >= 0, got {self.population!r}")
        if not isinstance(self.quota, int) or not 0 <= self.quota <= self.population:
            raise ValueError(
                f"quota: must be an integer in [0, population={self.population}], got {self.quota!r}"
            )


@dataclass(frozen=True)
class StratificationPlan:
    """Bin edges, status vocabulary, and per-cell quotas for subsampling."""

    bin_edges: tuple[float, ...]
    status_vocabulary: tuple[str, ...]
    cells: tuple[CellQuota, ...]

    def __post_init__(self) -> None:
        edges = tuple(float(e) for e in self.bin_edges)
        object.__setattr__(self, "bin_edges", edges)
        if len(edges) < 2:
            raise ValueError(f"bin_edges: need at least 2 edges, got {len(edges)}")
        for i, e in enumerate(edges):
            if not math.isfinite(e):
                raise ValueError(f"bin_edges[{i}]: must be finite, got {e!r}")
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError("bin_edges: must be strictly increasing")
        vocab = tuple(self.status_vocabulary)
        if not vocab:
            raise ValueError("status_vocabulary: must be non-empty")
        if len(set(vocab)) != len(vocab):
            raise ValueError("status_vocabulary: entries must be unique")
        for s in vocab:
            if not isinstance(s, str) or not s:
                raise ValueError("status_vocabulary: entries must be non-empty strings")
        n_bins = len(edges) - 1
        seen: set[tuple[int, str]] = set()
        for cell in self.cells:
            if cell.bin_index >= n_bins:
                raise ValueError(
                    f"cells: bin_index {cell.bin_index} out of range for {n_bins} bins"
                )
            if cell.status not in vocab:
                raise ValueError(f"cells: status {cell.status!r} not in vocabulary")
            key = (cell.bin_index, cell.status)
            if key in seen:
                raise ValueError(f"cells: duplicate cell {key}")
            seen.add(key)
        if self.n_cal < 1:
            raise ValueError("cells: quotas must sum to at least 1")

    @property
    def n_cal(self) -> int:
        return sum(cell.quota for cell in self.cells)

    def to_dict(self) -> dict[str, Any]:
        return {
            "bin_edges": list(self.bin_edges),
            "status_vocabulary": list(self.status_vocabulary),
            "cells": [asdict(c) for c in self.cells],
        }


@dataclass(frozen=True)
class IsotonicCurve:
    """Non-decreasing step fit of tail probabilities at score knots.

    Knots are (threshold, fitted value, weight) triples with strictly
    increasing thresholds and fitted values in [0, 1].
    """

    knots: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("knots: must contain at least one knot")
        cleaned = []
        for i, (t, v, w) in enumerate(self.knots):
            t, v, w = float(t), float(v), float(w)
            if not math.isfinite(t):
                raise ValueError(f"knots[{i}]: threshold must be finite, got {t!r}")
            if not -_MONOTONE_TOL <= v <= 1.0 + _MONOTONE_TOL:
                raise ValueError(f"knots[{i}]: fitted value must lie in [0, 1], got {v!r}")
            if not (math.isfinite(w) and w > 0):
                raise ValueError(f"knots[{i}]: weight must be finite and > 0, got {w!r}")
            cleaned.append((t, min(max(v, 0.0), 1.0), w))
        for i in range(1, len(cleaned)):
            if cleaned[i][0] <= cleaned[i - 1][0]:
                raise ValueError("knots: thresholds must be strictly increasing")
            if cleaned[i][1] < cleaned[i - 1][1] - _MONOTONE_TOL:
                raise ValueError("knots: fitted values must be non-decreasing")
        object.__setattr__(self, "knots", tuple(cleaned))

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(k[0] for k in self.knots)

    @property
    def fitted(self) -> tuple[float, ...]:
        return tuple(k[1] for k in self.knots)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(k[2] for k in self.knots)


def _table(pool: Pool) -> CalibrationTable:
    return pool if isinstance(pool, CalibrationTable) else CalibrationTable.from_records(pool)


def _subset(pool: Pool, indices: np.ndarray) -> Pool:
    """The pool's records at ``indices``, as a table or a list like the pool."""
    if isinstance(pool, CalibrationTable):
        return pool.take(indices)
    return [pool[i] for i in indices.tolist()]


def _cell_members(
    records: Pool,
    edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> dict[tuple[int, str], np.ndarray]:
    """Indices of the records in each (score bin, status) cell, in record order."""
    table = _table(records)
    vocab = tuple(status_vocabulary)
    codes = {s: k for k, s in enumerate(vocab)}
    status = np.array([codes.get(s, -1) for s in table.statuses], dtype=np.intp)
    scores = table.scores
    outside = (scores < edges[0]) | (scores > edges[-1])
    bad = np.flatnonzero((status < 0) | outside)
    if bad.size:
        i = int(bad[0])
        if status[i] < 0:
            raise ValueError(
                f"{table.where(i)}: status {table.statuses[i]!r} not in vocabulary {vocab}"
            )
        raise ValueError(
            f"{table.where(i)}: score {float(scores[i])} outside binning range "
            f"[{edges[0]}, {edges[-1]}]"
        )
    # bins are [e_i, e_{i+1}) except the last, which includes its upper edge
    bins = np.searchsorted(np.asarray(edges, dtype=float), scores, side="right") - 1
    cell = np.minimum(bins, len(edges) - 2) * len(vocab) + status
    order = np.argsort(cell, kind="stable")
    keys, starts = np.unique(cell[order], return_index=True)
    return {
        (int(key) // len(vocab), vocab[int(key) % len(vocab)]): members
        for key, members in zip(keys, np.split(order, starts[1:]))
    }


def cell_populations(
    records: Pool,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> dict[tuple[int, str], int]:
    """Count pool records per (score bin, status) cell."""
    members = _cell_members(records, bin_edges, status_vocabulary)
    return {key: len(idx) for key, idx in members.items()}


def allocate_quotas(
    populations: Mapping[tuple[int, str], int],
    n_cal: int,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> StratificationPlan:
    """Largest-remainder allocation of ``n_cal`` across cells.

    Each cell's ideal share is its population fraction times ``n_cal``;
    cells receive the floor of their share and the leftover units go to
    the largest remainders (ties broken by bin index, then status order).
    When a winning cell is already exhausted the unit moves to the next
    feasible cell and a warning is logged.
    """
    edges = tuple(float(e) for e in bin_edges)
    vocab = tuple(status_vocabulary)
    n_bins = len(edges) - 1
    if n_bins < 1:
        raise ValueError("bin_edges: need at least 2 edges")
    keys = [(b, s) for b in range(n_bins) for s in vocab]
    key_set = set(keys)
    for key, pop in populations.items():
        if key not in key_set:
            raise ValueError(f"populations: unknown cell {key!r}")
        if not isinstance(pop, int) or pop < 0:
            raise ValueError(f"populations: cell {key!r} count must be an integer >= 0")
    pops = [populations.get(key, 0) for key in keys]
    total = sum(pops)
    if total < 1:
        raise ValueError("populations: pool is empty")
    if not isinstance(n_cal, int) or not 1 <= n_cal <= total:
        raise ValueError(f"n_cal: must be an integer in [1, {total}], got {n_cal!r}")

    # integer arithmetic keeps remainder comparisons exact
    base = [(n_cal * p) // total for p in pops]
    remainder = [(n_cal * p) % total for p in pops]
    quotas = list(base)
    leftover = n_cal - sum(base)
    order = sorted(range(len(keys)), key=lambda i: (-remainder[i], i))
    while leftover > 0:
        placed = False
        for i in order:
            if quotas[i] < pops[i]:
                if remainder[i] == 0 or quotas[i] > base[i]:
                    logger.warning(
                        "quota overflow: reallocating 1 unit to cell %s", keys[i]
                    )
                quotas[i] += 1
                leftover -= 1
                placed = True
                if leftover == 0:
                    break
        if not placed:
            raise ValueError("n_cal: exceeds total feasible capacity")

    cells = tuple(
        CellQuota(bin_index=b, status=s, population=p, quota=q)
        for (b, s), p, q in zip(keys, pops, quotas)
    )
    return StratificationPlan(bin_edges=edges, status_vocabulary=vocab, cells=cells)


def stratified_sample(pool: Pool, plan: StratificationPlan, seed: int) -> Pool:
    """Draw each cell's quota uniformly without replacement, deterministically.

    Returns the selected records in pool order.  The plan must be feasible:
    every cell's quota has to fit inside the pool's actual cell population.
    """
    members = _cell_members(pool, plan.bin_edges, plan.status_vocabulary)
    return _subset(pool, _draw(members, plan, seed))


def stratify(
    pool: Pool,
    n_cal: int,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
    seed: int,
) -> tuple[StratificationPlan, Pool]:
    """Plan and draw a stratified sample; returns (plan, sample).

    Same as ``allocate_quotas`` on ``cell_populations``, then
    ``stratified_sample``, but bins the pool once.
    """
    members = _cell_members(pool, bin_edges, status_vocabulary)
    populations = {key: len(idx) for key, idx in members.items()}
    plan = allocate_quotas(populations, n_cal, bin_edges, status_vocabulary)
    return plan, _subset(pool, _draw(members, plan, seed))


def _draw(
    members: Mapping[tuple[int, str], np.ndarray],
    plan: StratificationPlan,
    seed: int,
) -> np.ndarray:
    """Sorted indices of each cell's quota of its members, drawn with ``seed``."""
    rng = np.random.default_rng(seed)
    chosen: list[np.ndarray] = []
    for cell in plan.cells:
        available = members.get((cell.bin_index, cell.status), np.empty(0, dtype=np.intp))
        if cell.quota > len(available):
            raise ValueError(
                f"cells: quota {cell.quota} exceeds pool population {len(available)} "
                f"in cell {(cell.bin_index, cell.status)}"
            )
        if cell.quota == 0:
            continue
        chosen.append(available[rng.choice(len(available), size=cell.quota, replace=False)])
    return np.sort(np.concatenate(chosen))


def empirical_acceptance(scores: Sequence[float], threshold: float) -> float:
    """Fraction of scores at or above the threshold."""
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("scores: must be non-empty")
    if np.isnan(threshold):
        raise ValueError("threshold: must not be NaN")
    return float(np.mean(arr >= threshold))


def rate_matching_threshold(scores: Sequence[float], target_rate: float) -> float:
    """Smallest threshold whose empirical acceptance is closest to the target.

    Candidates are the distinct observed scores plus an accept-nothing
    sentinel (+inf); among equally close candidates the smallest wins.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.size == 0:
        raise ValueError("scores: must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores: must be finite")
    target_rate = float(target_rate)
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target_rate: must lie strictly in (0, 1), got {target_rate!r}")
    ordered = np.sort(arr)
    n = ordered.size
    uniq, first = np.unique(ordered, return_index=True)
    rates = (n - first) / n
    gaps = np.abs(rates - target_rate)
    best = int(np.argmin(gaps))  # the first, so the smallest of tied thresholds
    # the sentinel's acceptance is 0, so its gap is target_rate; finite wins ties
    return float(uniq[best]) if gaps[best] <= target_rate else math.inf


def distinct_scores(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """The distinct scores in increasing order, each as it first occurs.

    Equal floats differ only in the sign of zero, so this is
    ``sorted(set(scores))``: a pool holding 0.0 and -0.0 keeps whichever
    comes first.
    """
    s = np.asarray(scores, dtype=float)
    return s[np.unique(s, return_index=True)[1]]


def _tail_counts(
    scores: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct scores ascending, and the records and accepts at or above each.

    ``accepted`` is a boolean mask over ``scores``.
    """
    uniq, inverse = np.unique(scores, return_inverse=True)
    tail_n = np.cumsum(np.bincount(inverse, minlength=uniq.size)[::-1])[::-1]
    tail_a = np.cumsum(np.bincount(inverse[accepted], minlength=uniq.size)[::-1])[::-1]
    return uniq, tail_n, tail_a


def tail_probability_points(
    records: Pool,
    thresholds: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Raw conditional acceptance estimates at candidate thresholds.

    For each threshold z the estimate is the accepted fraction among
    records with score >= z, weighted by that tail count.  Thresholds must
    be strictly increasing and every tail must be non-empty.
    """
    table = _table(records)
    if not len(table):
        raise ValueError("records: must be non-empty")
    cand = np.asarray(thresholds, dtype=float)
    if cand.size == 0:
        raise ValueError("thresholds: must be non-empty")
    if not np.all(np.isfinite(cand)):
        raise ValueError("thresholds: must be finite")
    if np.any(np.diff(cand) <= 0):
        raise ValueError("thresholds: must be strictly increasing")
    uniq, tail_n, tail_a = _tail_counts(table.scores, table.accepts)
    idx = np.searchsorted(uniq, cand, side="left")
    counts = np.append(tail_n, 0)[idx]
    if np.any(counts == 0):
        bad = cand[np.nonzero(counts == 0)[0][0]]
        raise ValueError(f"thresholds: no records with score >= {bad}")
    estimates = np.append(tail_a, 0)[idx] / counts
    return [
        (float(t), float(p), float(c))
        for t, p, c in zip(cand, estimates, counts)
    ]


def _pava(values: Sequence[float], weights: Sequence[float]) -> np.ndarray:
    """Weighted pool-adjacent-violators fit (non-decreasing)."""
    swv: list[float] = []  # per-block sum of weight * value
    sw: list[float] = []   # per-block sum of weight
    cnt: list[int] = []
    for v, w in zip(values, weights):
        swv.append(v * w)
        sw.append(w)
        cnt.append(1)
        # merge while the previous block mean exceeds the last one;
        # cross-multiplied form avoids division (weights are positive)
        while len(swv) > 1 and swv[-2] * sw[-1] > swv[-1] * sw[-2]:
            top_swv, top_sw, top_cnt = swv.pop(), sw.pop(), cnt.pop()
            swv[-1] += top_swv
            sw[-1] += top_sw
            cnt[-1] += top_cnt
    return np.repeat(np.divide(swv, sw), cnt)


def isotonic_fit(points: Sequence[tuple[float, float, float]]) -> IsotonicCurve:
    """Weighted least-squares non-decreasing fit of (t, value, weight) points."""
    if not points:
        raise ValueError("points: must be non-empty")
    ts = [float(p[0]) for p in points]
    values = [float(p[1]) for p in points]
    weights = [float(p[2]) for p in points]
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"points[{i}]: value must lie in [0, 1], got {v!r}")
    for i, w in enumerate(weights):
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"points[{i}]: weight must be finite and > 0, got {w!r}")
    fitted = _pava(values, weights)
    return IsotonicCurve(tuple(zip(ts, fitted.tolist(), weights)))


def tau_05(curve: IsotonicCurve, level: float = 0.5) -> float:
    """Smallest knot threshold whose fitted value reaches ``level``.

    No interpolation between knots.  Raises ThresholdUnreachableError when
    the curve stays below the level everywhere.
    """
    level = float(level)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level: must lie strictly in (0, 1), got {level!r}")
    for t, v, _ in curve.knots:
        if v >= level:
            return t
    raise ThresholdUnreachableError(
        f"fitted curve never reaches {level} (max fitted value {curve.fitted[-1]:.6g})"
    )


def tau05_from_scores(scores: Sequence[float], accepts: Sequence[float]) -> float:
    """Exact tau_05 of the tail curve over all distinct scores; accepts are 0/1.

    {fit >= 1/2} of a weighted isotonic fit is the largest upper set that
    minimizes sum_k w_k (1/2 - y_k) (Barlow et al. 1972; Best & Chakravarti
    1990).  With N_k and A_k the records and accepts at or above the k-th
    distinct score, that objective is the integer suffix sum
    S_k = sum_{j >= k} (N_j - 2 A_j), with S = 0 past the last score, so
    tau_05 is the score at the first argmin of S: unreachable when that
    argmin is past the end.
    """
    s = np.asarray(scores, dtype=float)
    a = np.asarray(accepts)
    if s.size == 0 or s.shape != a.shape:
        raise ValueError("scores: must be non-empty and match accepts in length")
    accepted = a == 1
    if not np.all(accepted | (a == 0)):
        raise ValueError("accepts: must be 0 or 1")
    uniq, tail_n, tail_a = _tail_counts(s, accepted)
    level = np.append(np.cumsum((tail_n - 2 * tail_a)[::-1])[::-1], 0)  # S_0 .. S_m
    k = int(np.argmin(level))
    if k == uniq.size:
        # the last PAVA block: the largest suffix mean of the tail curve
        peak = float(np.max(np.cumsum(tail_a[::-1]) / np.cumsum(tail_n[::-1])))
        raise ThresholdUnreachableError(
            f"fitted curve never reaches 0.5 (max fitted value {peak:.6g})"
        )
    return float(uniq[k])


def fit_tau05(records: Pool) -> tuple[float, IsotonicCurve]:
    """tau_05 of the records, and the isotonic fit of their tail curve."""
    table = _table(records)
    tau = tau05_from_scores(table.scores, table.accepts)
    return tau, isotonic_fit(tail_probability_points(table, distinct_scores(table.scores)))
