"""The isotonic fit of a pool's tail curve, and tau_05 read off it.

``tail_probability_points`` gives the raw estimates of

    pi(z) = P(human accepts | agent score >= z)

at candidate thresholds, ``isotonic_fit`` their weighted PAVA fit and
``tau_05`` the smallest knot where the fit reaches a level; the fit is
``calibrate._pava``, the one PAVA loop.  ``calibrate`` exports these names
and imports this module on first use of one.  The ``calibrate`` command
writes ``calibrate.TailCounts.curve``'s columns and ``simulate
threshold-error`` needs only the tail counts, so neither loads this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibrate import Pool, TailCounts, _pava, _table, _tails
from .rules import ThresholdUnreachableError, _fail, numbers, open_unit

__all__ = ["IsotonicCurve", "tail_probability_points", "isotonic_fit", "tau_05", "fit_tau05"]

_MONOTONE_TOL = 1e-12


def _columns(field: str, rows: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """The columns of ``rows``, (threshold, value, weight) triples, each converted by ``rules.numbers``."""
    if not all(isinstance(row, (tuple, list, np.ndarray)) and len(row) == 3 for row in rows):
        _fail(field, "each entry must be a (threshold, value, weight) triple")
    return [numbers(field, column) for column in zip(*rows)]


def _first_bad(field: str, checks: list[tuple[np.ndarray, np.ndarray, str]]) -> None:
    """Raise ``field[i]: <rule>, got <value>`` at the first row ``i`` failing a (column, passes, rule) check."""
    for i in np.flatnonzero(~np.logical_and.reduce([passes for _, passes, _ in checks]))[:1].tolist():
        column, _, rule = next(check for check in checks if not check[1][i])
        _fail(f"{field}[{i}]", f"{rule}, got {float(column[i])!r}")


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
        t, v, w = _columns("knots", self.knots)
        _first_bad("knots", [
            (t, np.isfinite(t), "threshold must be finite"),
            (v, (v >= -_MONOTONE_TOL) & (v <= 1.0 + _MONOTONE_TOL), "fitted value must lie in [0, 1]"),
            (w, np.isfinite(w) & (w > 0), "weight must be finite and > 0"),
        ])
        v = np.clip(v, 0.0, 1.0)
        rising = np.diff(t) > 0
        bad = np.flatnonzero(~rising | (np.diff(v) < -_MONOTONE_TOL))
        if bad.size:
            if not rising[bad[0]]:
                raise ValueError("knots: thresholds must be strictly increasing")
            raise ValueError("knots: fitted values must be non-decreasing")
        object.__setattr__(self, "knots", tuple(zip(t.tolist(), v.tolist(), w.tolist())))

    @property
    def thresholds(self) -> tuple[float, ...]:
        return tuple(k[0] for k in self.knots)

    @property
    def fitted(self) -> tuple[float, ...]:
        return tuple(k[1] for k in self.knots)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(k[2] for k in self.knots)


def tail_probability_points(records: Pool, thresholds: Sequence[float]) -> list[tuple[float, float, float]]:
    """Raw conditional acceptance estimates at candidate thresholds.

    For each threshold z the estimate is the accepted fraction among
    records with score >= z, weighted by that tail count.  Thresholds must
    be strictly increasing and every tail must be non-empty.
    """
    table = _table(records)
    if not len(table):
        raise ValueError("records: must be non-empty")
    tails = TailCounts.of(table.scores, table.accepts)
    cand = numbers("thresholds", thresholds)
    if cand.size == 0:
        raise ValueError("thresholds: must be non-empty")
    if not np.all(np.isfinite(cand)):
        raise ValueError("thresholds: must be finite")
    if np.any(np.diff(cand) <= 0):
        raise ValueError("thresholds: must be strictly increasing")
    idx = np.searchsorted(tails.scores, cand, side="left")
    counts = np.append(tails.records, 0)[idx]
    if np.any(counts == 0):
        bad = cand[np.nonzero(counts == 0)[0][0]]
        raise ValueError(f"thresholds: no records with score >= {bad}")
    estimates = np.append(tails.accepts, 0)[idx] / counts
    return list(zip(cand.tolist(), estimates.tolist(), counts.astype(float).tolist()))


def isotonic_fit(points: Sequence[tuple[float, float, float]]) -> IsotonicCurve:
    """Weighted least-squares non-decreasing fit of (t, value, weight) points."""
    if not len(points):
        raise ValueError("points: must be non-empty")
    ts, values, weights = _columns("points", points)
    _first_bad("points", [(values, (values >= 0.0) & (values <= 1.0), "value must lie in [0, 1]")])
    _first_bad("points", [(weights, np.isfinite(weights) & (weights > 0), "weight must be finite and > 0")])
    return IsotonicCurve(tuple(zip(ts.tolist(), _pava(values, weights).tolist(), weights.tolist())))


def tau_05(curve: IsotonicCurve, level: float = 0.5) -> float:
    """Smallest knot threshold whose fitted value reaches ``level``.

    No interpolation between knots.  Raises ThresholdUnreachableError when
    the curve stays below the level everywhere.
    """
    level = open_unit("level", level)
    for t, v, _ in curve.knots:
        if v >= level:
            return t
    raise ThresholdUnreachableError(
        f"fitted curve never reaches {level} (max fitted value {curve.fitted[-1]:.6g})"
    )


def fit_tau05(records: Pool) -> tuple[float, IsotonicCurve]:
    """tau_05 of the records, and the isotonic fit of their tail curve, from one sort."""
    table = _table(records)
    tails = _tails(table.scores, table.accepts)
    scores, _, weight, fitted = tails.curve()
    return tails.tau05(), IsotonicCurve(tuple(zip(scores.tolist(), fitted.tolist(), weight.tolist())))
