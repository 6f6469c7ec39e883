"""Consensus formation, scalar scoring, and threshold decisions.

A panel of M reviews is reduced to a weighted consensus rubric, the
consensus rubric to a scalar score, and the score to an accept/reject
decision against a threshold.  Precision weighting (inverse projected
variance) and the weighted consensus variance live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import (
    ReviewerWeights,
    RubricSchema,
    ScoringFunctional,
    finite,
    left_sum,
    non_negative,
    not_nan,
    positive,
)
from .rules import _sequence
from .tables import PanelTable

if TYPE_CHECKING:
    from .objects import ReviewPanel

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
]


@dataclass(frozen=True)
class ConsensusRubric:
    """Weighted per-criterion average over a panel's reviews."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = finite.each("values", self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("values: must contain at least one criterion")

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
        finite("score", self.score)
        not_nan("threshold", self.threshold)
        if self.accept != (self.score >= self.threshold):
            raise ValueError("accept: inconsistent with score >= threshold")
        if self.margin != self.score - self.threshold:
            raise ValueError("margin: must equal score - threshold")


def consensus_rubric(panel: ReviewPanel, weights: ReviewerWeights) -> ConsensusRubric:
    """Weight-average the panel's rubrics criterion by criterion (``consensus_rows``)."""
    if len(weights) != len(panel.reviews):
        raise ValueError(
            f"weights: expected {len(panel.reviews)} entries for panel "
            f"{panel.submission_id!r}, got {len(weights)}"
        )
    table = PanelTable.from_panels([panel])
    rows = consensus_rows(table.rubric, np.array(weights.weights), table.counts)
    return ConsensusRubric(tuple(rows[0].tolist()))


def score(
    consensus: ConsensusRubric,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> float:
    """Collapse a consensus rubric to a scalar via the scoring functional (``score_rows``).

    ``overall_pick`` requires a schema whose ``overall_index`` is set.
    """
    return float(score_rows(np.array([consensus.values]), functional, schema)[0])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers check the scores
def consensus_rows(rubric: np.ndarray, weights: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``consensus_rubric`` of many panels at once: one (K,) row per panel.

    ``rubric`` (N, K) and ``weights`` (N,) hold the reviews of all panels
    back to back; ``counts`` (P,) gives each panel's number of rows (>= 1).
    Panels of one size share a stacked ``matmul``, whose rows match the
    vector-matrix product ``w @ rubric`` of each panel bit for bit
    (``np.add.reduceat`` and ``einsum`` do not).
    """
    starts = np.cumsum(counts) - counts
    out = np.empty((len(counts), rubric.shape[1]))
    for m in np.flatnonzero(np.bincount(counts)):  # the sizes in use; np.unique imports numpy.ma
        panels = np.flatnonzero(counts == m)
        rows = starts[panels, None] + np.arange(m)
        out[panels] = np.matmul(weights[rows][:, None, :], rubric[rows])[:, 0, :]
    return out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers check the scores
def score_rows(
    rows: np.ndarray,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> np.ndarray:
    """``score`` of each row of an (N, K) array of rubrics.

    Each row takes a one-dimensional dot product with the coefficients;
    one ``(N, K) @ coefficients`` product rounds differently.
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
    if schema.criteria_count != rows.shape[1]:
        raise ValueError(f"schema: criteria_count {schema.criteria_count} does not match "
                         f"consensus length {rows.shape[1]}")
    return rows[:, schema.overall_index].copy()


def decide(value: float, threshold: float) -> Decision:
    """Accept iff ``value >= threshold``; the boundary accepts.

    ``Decision``'s rules run on both numbers before they are compared.
    """
    value, threshold = finite("score", value), not_nan("threshold", threshold)
    return Decision(score=value, threshold=threshold, accept=value >= threshold, margin=value - threshold)


def gls_weights(projected_variances: Sequence[float]) -> ReviewerWeights:
    """Precision weights: w_m proportional to the inverse projected variance.

    These minimize the weighted consensus variance sum(w_m^2 c_m) subject
    to the weights summing to one.  Every variance must be > 0.
    """
    variances = positive.each("projected_variances", projected_variances)
    if not variances:
        raise ValueError("projected_variances: must contain at least one variance")
    inverse = [1.0 / v for v in variances]
    total = left_sum(inverse)
    return ReviewerWeights(tuple(x / total for x in inverse))


def panel_variance(weights: ReviewerWeights, projected_variances: Sequence[float]) -> float:
    """Weighted consensus variance sum_m w_m^2 c_m."""
    variances = _sequence("projected_variances", projected_variances)
    if len(variances) != len(weights):
        raise ValueError(
            f"projected_variances: expected {len(weights)} entries, got {len(variances)}"
        )
    variances = non_negative.each("projected_variances", variances)
    return sum(w * w * v for w, v in zip(weights.weights, variances))
