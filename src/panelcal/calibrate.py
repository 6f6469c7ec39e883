"""Threshold calibration against a human-labeled record pool.

Two calibrated thresholds come out of this module.  The rate-matching
threshold reproduces a target acceptance rate on the calibration set.
The half-probability threshold tau_05 is the smallest score at which the
isotonic fit of the conditional tail probability

    pi(z) = P(human accepts | agent score >= z)

reaches 1/2, found exactly as a level-set argmin over the tail counts.
One sort of the pool (``TailCounts``) gives both thresholds, the curve
of ``curve.csv`` fitted by ``_pava``, the one PAVA loop, and the packed
keys of the bootstrap; ``_tau05_ranks`` runs the same rule on whole
blocks of bootstrap replicates.  The point-and-knot API of the same fit
(``isotonic_fit``, in ``panelcal.isotonic``) and stratified subsampling,
which builds the calibration set itself (``stratify``, in
``panelcal.strata``), are exported here and imported on first use, so
the ``calibrate`` command loads no ``isotonic``.

A pool is either a sequence of ``CalibrationRecord``s or a
``tables.CalibrationTable``; either way the work runs on the table's
columns, and a subsample comes back in the form the pool came in.  Only
``_table`` imports ``tables``, so ``simulate threshold-error``, which
passes its population as two columns, loads no ``tables``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

import numpy as np

from . import _lazy
from .rules import ThresholdUnreachableError, not_nan, numbers, open_unit, sequence

if TYPE_CHECKING:
    from .objects import CalibrationRecord
    from .tables import CalibrationTable

Pool = Union[Sequence["CalibrationRecord"], "CalibrationTable"]

__all__ = [
    "ThresholdUnreachableError",
    "CellQuota",
    "StratificationPlan",
    "IsotonicCurve",
    "TailCounts",
    "cell_populations",
    "allocate_quotas",
    "stratified_sample",
    "stratify",
    "empirical_acceptance",
    "rate_matching_threshold",
    "tail_probability_points",
    "isotonic_fit",
    "tau_05",
    "tau05_from_scores",
    "fit_tau05",
]

__getattr__, __dir__ = _lazy(__name__, {
    "isotonic": ("IsotonicCurve", "tail_probability_points", "isotonic_fit", "tau_05", "fit_tau05"),
    "strata": ("CellQuota", "StratificationPlan", "cell_populations", "allocate_quotas",
               "stratified_sample", "stratify"),
})


def _table(field: str, pool: Pool, non_empty: bool = False) -> CalibrationTable:
    """The pool as a table; records run through ``rules.sequence`` as ``field`` first, and a table by its ids."""
    from .tables import CalibrationTable

    if isinstance(pool, CalibrationTable):
        sequence(field, pool.ids, "calibration records", non_empty=non_empty)
        return pool
    return CalibrationTable.from_records(sequence(field, pool, "calibration records", non_empty=non_empty))


def empirical_acceptance(scores: Sequence[float], threshold: float) -> float:
    """Fraction of scores at or above the threshold."""
    arr = numbers("scores", scores, non_empty=True)
    return float(np.mean(arr >= not_nan("threshold", threshold)))


class TailCounts(NamedTuple):
    """A pool's scores after one sort: the distinct scores, and the records and accepts at or above each.

    ``scores`` are ascending, each as it first occurs in the pool (equal
    floats differ only in the sign of zero, so a pool holding 0.0 and -0.0
    keeps whichever comes first); ``records`` and ``accepts`` are the tail
    counts N_k and A_k; ``keys`` packs each record as ``rank << 1 | accept``,
    its rank indexing ``scores``, in 32 bits below 2^30 distinct scores
    and in 64 above.  ``rate_matching_threshold``,
    ``tau05_from_scores``, ``tail_probability_points`` and ``fit_tau05``
    are views of it.
    """

    scores: np.ndarray
    records: np.ndarray
    accepts: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(cls, scores: np.ndarray, accepted: np.ndarray | None = None) -> TailCounts:
        """The tail counts of ``scores``; ``accepted`` masks the accepted ones (none without it)."""
        uniq, inverse = np.unique(scores, return_inverse=True)
        zero = np.flatnonzero(uniq == 0)
        if zero.size:  # the only equal floats that differ: 0.0 and -0.0; keep the first
            uniq[zero] = scores[np.argmax(scores == 0)]
        if accepted is None:
            accepted = np.zeros(inverse.size, dtype=bool)
        records, accepts = (
            np.cumsum(np.bincount(rows, minlength=uniq.size)[::-1])[::-1]
            for rows in (inverse, inverse[accepted])
        )
        packed = np.int32 if uniq.size < 1 << 30 else np.int64  # rank << 1 | 1 fits the key
        return cls(uniq, records, accepts, (inverse.astype(packed) << 1) | accepted)

    def rate_threshold(self, target_rate: float) -> float:
        """Smallest distinct score whose acceptance is closest to ``target_rate``, or +inf.

        The accept-nothing sentinel +inf has acceptance 0, so its gap is
        ``target_rate``; a finite score wins a tie with it.
        """
        target_rate = open_unit("target_rate", target_rate)
        gaps = np.abs(self.records / self.records[0] - target_rate)  # records[0]: the whole pool
        best = int(np.argmin(gaps))  # the first, so the smallest of tied thresholds
        return float(self.scores[best]) if gaps[best] <= target_rate else math.inf

    def tau05(self) -> float:
        """tau_05 by the level-set rule of ``_tau05_ranks``, run on the pool as one row."""
        k = int(_tau05_ranks(self.keys[None, :])[0])
        if k < 0:
            # the last PAVA block: the largest suffix mean of the tail curve
            peak = float(np.max(np.cumsum(self.accepts[::-1]) / np.cumsum(self.records[::-1])))
            raise ThresholdUnreachableError(f"fitted curve never reaches 0.5 (max fitted value {peak:.6g})")
        return float(self.scores[k])

    def curve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The tail curve at the distinct scores as columns ``(scores, raw, weight, fitted)``: raw = A_k / N_k and
        weight = N_k, as ``tail_probability_points`` gives them, and their PAVA fit clipped to [0, 1]."""
        raw = self.accepts / self.records
        weight = self.records.astype(float)
        return self.scores, raw, weight, np.clip(_pava(raw, weight), 0.0, 1.0)


def _pava(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The weighted pool-adjacent-violators fit (non-decreasing) of ``values``; every weight is > 0.

    Each value opens a block (sum of weight * value, sum of weight, size) that absorbs the block below while
    that block's mean is larger, compared cross-multiplied; a merged block's sums are the lower's plus the newer's.
    """
    swv: list[float] = []
    sw: list[float] = []
    size: list[int] = []
    for v, w in zip(values.tolist(), weights.tolist()):
        top_swv, top_sw, top_size = v * w, w, 1
        while swv and swv[-1] * top_sw > top_swv * sw[-1]:
            top_swv = swv.pop() + top_swv
            top_sw = sw.pop() + top_sw
            top_size += size.pop()
        swv.append(top_swv)
        sw.append(top_sw)
        size.append(top_size)
    return np.repeat(np.divide(swv, sw), size)


def rate_matching_threshold(scores: Sequence[float], target_rate: float) -> float:
    """Smallest threshold whose empirical acceptance is closest to the target.

    Candidates are the distinct observed scores plus an accept-nothing
    sentinel (+inf); among equally close candidates the smallest wins.
    """
    arr = numbers("scores", scores, non_empty=True)
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores: must be finite")
    return TailCounts.of(arr).rate_threshold(target_rate)


def _tau05_ranks(keys: np.ndarray) -> np.ndarray:
    """tau_05 of each row of packed keys ``rank << 1 | accept``, as a rank.

    Each row of ``keys`` is one sample; ``rank`` indexes the sorted distinct
    scores.  Returns each row's tau_05 as a rank, or -1 where the curve
    never reaches 1/2.

    {fit >= 1/2} of a weighted isotonic fit is the largest upper set that
    minimizes sum_k w_k (1/2 - y_k) (Barlow et al. 1972; Best & Chakravarti
    1990).  With N_k and A_k the records and accepts at or above the k-th
    distinct score, that objective is the integer suffix sum
    S_k = sum_{j >= k} (N_j - 2 A_j), with S = 0 past the last score, so
    tau_05 is the score at the first argmin of S: unreachable when that
    argmin is past the end.  Sorted, a row's elements run by rank, so the
    suffix sum T of (1 - 2 accept) at the start of each rank group is that
    score's N - 2A, and the suffix sum of T over the group starts is S.  The
    first argmin of S over the starts is tau_05 unless S > 0 there, where
    the S = 0 past the last score wins instead.

    The keys sort in their own width.  A row of n elements has |T| <= n and
    |S| <= n(n+1)/2, so both suffix sums run in int32 while that bound is
    below 2^31 (every bootstrap row) and in int64 above it (a whole pool).
    """
    keys = np.sort(keys, axis=1)  # equal keys are identical integers: stability cannot matter
    n = keys.shape[1]
    acc = np.int32 if n * (n + 1) // 2 < 1 << 31 else np.int64
    rank = keys >> 1
    tail = np.cumsum((1 - 2 * (keys & 1))[:, ::-1], axis=1, dtype=acc)[:, ::-1]
    start = np.empty(keys.shape, dtype=bool)
    start[:, 0] = True
    np.not_equal(rank[:, 1:], rank[:, :-1], out=start[:, 1:])
    level = np.cumsum(np.where(start, tail, 0)[:, ::-1], axis=1, dtype=acc)[:, ::-1]
    level[~start] = np.iinfo(acc).max
    rows = np.arange(len(keys))
    pos = np.argmin(level, axis=1)
    return np.where(level[rows, pos] > 0, -1, rank[rows, pos])


def _tails(scores: Sequence[float], accepts: Sequence[float]) -> TailCounts:
    """The ``TailCounts`` of a non-empty pool whose accepts are 0/1."""
    s = numbers("scores", scores, non_empty=True)
    a = sequence("accepts", accepts, "0/1 values", len(s))
    try:
        a = np.asarray(a)
    except ValueError:  # entries of different lengths: no array
        a = None
    if a is None or a.ndim != 1 or not np.all((a == 1) | (a == 0)):
        raise ValueError("accepts: must be 0 or 1")
    accepted = a == 1
    return TailCounts.of(s, accepted)


def tau05_from_scores(scores: Sequence[float], accepts: Sequence[float]) -> float:
    """Exact tau_05 of the tail curve over all distinct scores (``TailCounts.tau05``); accepts are 0/1."""
    return _tails(scores, accepts).tau05()


