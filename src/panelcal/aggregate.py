"""Consensus formation, scalar scoring, and threshold decisions.

A panel of M reviews is reduced to a weighted consensus rubric, the
consensus rubric to a scalar score, and the score to an accept/reject
decision against a threshold.  Precision weighting (inverse projected
variance) and the weighted consensus variance live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ReviewerWeights,
    ReviewPanel,
    RubricSchema,
    ScoringFunctional,
    left_sum,
)

__all__ = [
    "ConsensusRubric",
    "Decision",
    "consensus_rubric",
    "consensus_rows",
    "score",
    "score_rows",
    "decide",
    "gls_weights",
    "panel_variance",
    "projected_variance",
]


@dataclass(frozen=True)
class ConsensusRubric:
    """Weighted per-criterion average over a panel's reviews."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("values: must contain at least one criterion")
        for k, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"values[{k}]: must be finite, got {v!r}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Decision:
    """Outcome of comparing a score against a threshold.

    Accepts exactly when ``score >= threshold`` (boundary inclusive);
    ``margin`` is ``score - threshold``.
    """

    score: float
    threshold: float
    accept: bool
    margin: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.score):
            raise ValueError(f"score: must be finite, got {self.score!r}")
        if math.isnan(self.threshold):
            raise ValueError("threshold: must not be NaN")
        if self.accept != (self.score >= self.threshold):
            raise ValueError("accept: inconsistent with score >= threshold")
        if self.margin != self.score - self.threshold:
            raise ValueError("margin: must equal score - threshold")


def consensus_rubric(panel: ReviewPanel, weights: ReviewerWeights) -> ConsensusRubric:
    """Weight-average the panel's rubrics criterion by criterion."""
    if len(weights) != len(panel.reviews):
        raise ValueError(
            f"weights: expected {len(panel.reviews)} entries for panel "
            f"{panel.submission_id!r}, got {len(weights)}"
        )
    matrix = np.array([r.rubric.values for r in panel.reviews], dtype=float)
    w = np.asarray(weights.weights, dtype=float)
    return ConsensusRubric(tuple(w @ matrix))


def score(
    consensus: ConsensusRubric,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> float:
    """Collapse a consensus rubric to a scalar via the scoring functional.

    ``overall_pick`` requires a schema whose ``overall_index`` is set.
    """
    if functional.kind == "linear":
        assert functional.coefficients is not None
        if len(functional.coefficients) != len(consensus):
            raise ValueError(
                f"coefficients: expected {len(consensus)} entries, "
                f"got {len(functional.coefficients)}"
            )
        return float(
            np.dot(np.asarray(functional.coefficients), np.asarray(consensus.values))
        )
    if schema is None or schema.overall_index is None:
        raise ValueError("schema: overall_pick scoring needs a schema with overall_index set")
    if schema.criteria_count != len(consensus):
        raise ValueError(
            f"schema: criteria_count {schema.criteria_count} does not match "
            f"consensus length {len(consensus)}"
        )
    return consensus.values[schema.overall_index]


def consensus_rows(rubric: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``consensus_rubric`` of many panels at once: one (K,) row per panel.

    ``rubric`` (N, K) and ``weights`` (N,) hold the reviews of all panels
    back to back; ``counts`` (P,) gives each panel's number of rows (>= 1).
    Panels of one size share a stacked ``matmul`` whose per-panel product
    is the vector-matrix product ``consensus_rubric`` takes, so every row
    matches it bit for bit (``np.add.reduceat`` and ``einsum`` do not).
    """
    starts = np.cumsum(counts) - counts
    out = np.empty((len(counts), rubric.shape[1]))
    for m in np.unique(counts):
        panels = np.flatnonzero(counts == m)
        rows = starts[panels, None] + np.arange(m)
        out[panels] = np.matmul(weights[rows][:, None, :], rubric[rows])[:, 0, :]
    return out


def score_rows(
    rows: np.ndarray,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> np.ndarray:
    """``score`` of each row of an (N, K) array of rubrics, bit for bit.

    Each row takes the 1-D dot product ``score`` takes; one
    ``(N, K) @ coefficients`` product rounds differently.
    """
    if not len(rows):
        return np.empty(0)
    if functional.kind == "linear":
        coefficients = np.asarray(functional.coefficients, dtype=float)
        if len(coefficients) != rows.shape[1]:
            raise ValueError(
                f"coefficients: expected {rows.shape[1]} entries, got {len(coefficients)}"
            )
        return np.matmul(rows[:, None, :], coefficients)[:, 0]
    if schema is None or schema.overall_index is None:
        raise ValueError("schema: overall_pick scoring needs a schema with overall_index set")
    return rows[:, schema.overall_index].copy()


def decide(value: float, threshold: float) -> Decision:
    """Accept iff ``value >= threshold``; the boundary accepts."""
    accept = value >= threshold
    return Decision(score=value, threshold=threshold, accept=accept, margin=value - threshold)


def gls_weights(projected_variances: Sequence[float]) -> ReviewerWeights:
    """Precision weights: w_m proportional to the inverse projected variance.

    These minimize the weighted consensus variance sum(w_m^2 c_m) subject
    to the weights summing to one.  Every variance must be > 0.
    """
    variances = [float(v) for v in projected_variances]
    if not variances:
        raise ValueError("projected_variances: must contain at least one variance")
    for m, v in enumerate(variances):
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"projected_variances[{m}]: must be finite and > 0, got {v!r}")
    inverse = [1.0 / v for v in variances]
    total = left_sum(inverse)
    return ReviewerWeights(tuple(x / total for x in inverse))


def panel_variance(weights: ReviewerWeights, projected_variances: Sequence[float]) -> float:
    """Weighted consensus variance sum_m w_m^2 c_m."""
    variances = [float(v) for v in projected_variances]
    if len(variances) != len(weights):
        raise ValueError(
            f"projected_variances: expected {len(weights)} entries, got {len(variances)}"
        )
    for m, v in enumerate(variances):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"projected_variances[{m}]: must be finite and >= 0, got {v!r}")
    return sum(w * w * v for w, v in zip(weights.weights, variances))


def projected_variance(variance_diagonal: Sequence[float], coefficients: Sequence[float]) -> float:
    """Project a diagonal rubric covariance through a scoring direction.

    Computes v' diag(d) v = sum_k v_k^2 d_k for one reviewer.
    """
    diag = [float(d) for d in variance_diagonal]
    coeffs = [float(c) for c in coefficients]
    if len(diag) != len(coeffs):
        raise ValueError(
            f"variance_diagonal: expected {len(coeffs)} entries, got {len(diag)}"
        )
    for k, d in enumerate(diag):
        if not math.isfinite(d) or d < 0:
            raise ValueError(f"variance_diagonal[{k}]: must be finite and >= 0, got {d!r}")
    return sum(c * c * d for c, d in zip(coeffs, diag))
