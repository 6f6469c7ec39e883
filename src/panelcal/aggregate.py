"""Consensus formation and scalar scoring over the columns of many panels.

A panel of M reviews is reduced to a weighted consensus rubric and the
consensus rubric to a scalar score.  This module defines the two column
kernels the commands run, ``consensus_rows`` and ``score_rows``.  The
object-taking forms of the same steps, with the threshold decision,
precision weighting and the weighted consensus variance
(``ConsensusRubric``, ``Decision``, ``consensus_rubric``, ``score``,
``decide``, ``gls_weights``, ``panel_variance``), are defined in
``panelcal.objects``, which this module re-exports and imports on first
use of one of them: ``review`` and ``bayes`` build no object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _lazy

if TYPE_CHECKING:
    from .core import RubricSchema, ScoringFunctional

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

__getattr__, __dir__ = _lazy(__name__, {
    "objects": ("ConsensusRubric", "Decision", "consensus_rubric", "score", "decide", "gls_weights",
                "panel_variance"),
})


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
