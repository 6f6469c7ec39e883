"""Object-loop reference implementations of the panel computations.

``panelcal`` computes consensus rubrics, scores, posteriors, credible
calls and the corpus counts on columns; its object API (``aggregate``,
``bayes`` and ``metrics`` functions of one panel or a panel sequence) is a
set of adapters over those column kernels.  The loops here compute the same
results one object at a time, with the same argument checks and messages,
so the differential tests compare two independent codes.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from panelcal.aggregate import ConsensusRubric
from panelcal.bayes import normal_cdf, normal_quantile
from panelcal.core import (
    ConfusionCounts,
    GaussianPosterior,
    ReviewerWeights,
    ReviewPanel,
    RubricSchema,
    ScoringFunctional,
)


def consensus_rubric(panel: ReviewPanel, weights: ReviewerWeights) -> ConsensusRubric:
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


def posterior_update(
    prior: GaussianPosterior,
    reviews: Sequence[tuple[float, float]],
) -> GaussianPosterior:
    precision = 1.0 / prior.variance
    weighted = prior.mean / prior.variance
    for i, (score, variance) in enumerate(reviews):
        score = float(score)
        variance = float(variance)
        if not math.isfinite(score):
            raise ValueError(f"reviews[{i}]: score must be finite, got {score!r}")
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError(f"reviews[{i}]: variance must be finite and > 0, got {variance!r}")
        precision += 1.0 / variance
        weighted += score / variance
    return GaussianPosterior(mean=weighted / precision, variance=1.0 / precision)


def acceptance_probability(posterior: GaussianPosterior, threshold: float) -> float:
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    return 1.0 - normal_cdf((threshold - posterior.mean) / posterior.std)


def credible_robust(posterior: GaussianPosterior, threshold: float, alpha: float) -> bool:
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha: must lie strictly in (0, 1), got {alpha!r}")
    z = normal_quantile(1.0 - alpha / 2.0)
    return abs(threshold - posterior.mean) >= z * posterior.std


def solicit_worthwhile(
    posterior: GaussianPosterior,
    threshold: float,
    alpha: float,
    new_review_variance: float,
) -> bool:
    new_review_variance = float(new_review_variance)
    if not (math.isfinite(new_review_variance) and new_review_variance > 0):
        raise ValueError(
            f"new_review_variance: must be finite and > 0, got {new_review_variance!r}"
        )
    if credible_robust(posterior, threshold, alpha):
        return False
    precision_next = 1.0 / posterior.variance + 1.0 / new_review_variance
    std_next = math.sqrt(1.0 / precision_next)
    z = normal_quantile(1.0 - float(alpha) / 2.0)
    return abs(float(threshold) - posterior.mean) >= z * std_next


def icr_per_model(panels: Sequence[ReviewPanel], reviewer_id: str) -> float:
    if not panels:
        raise ValueError("panels: must be non-empty")
    flagged = 0
    for panel in panels:
        review = panel.review_by(reviewer_id)
        flagged += int(review.integrity_flag)
    return flagged / len(panels)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    if not panels:
        raise ValueError("panels: must be non-empty")
    return sum(1 for p in panels if p.any_flag) / len(panels)


def conflict_rate(
    panels: Sequence[ReviewPanel],
    scores: Mapping[str, float],
    threshold: float,
    reviewer_id: str | None = None,
) -> float | None:
    if not panels:
        raise ValueError("panels: must be non-empty")
    if math.isnan(threshold):
        raise ValueError("threshold: must not be NaN")
    flagged: list[ReviewPanel] = []
    for panel in panels:
        if reviewer_id is None:
            hit = panel.any_flag
        else:
            hit = panel.review_by(reviewer_id).integrity_flag
        if hit:
            flagged.append(panel)
    if not flagged:
        return None
    conflicts = 0
    for panel in flagged:
        if panel.submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {panel.submission_id!r}")
        if scores[panel.submission_id] >= threshold:
            conflicts += 1
    return conflicts / len(flagged)


def detector_counts(
    panels: Sequence[ReviewPanel],
    reviewer_id: str | None = None,
) -> ConfusionCounts:
    if not panels:
        raise ValueError("panels: must be non-empty")
    tp = fp = tn = fn = 0
    for panel in panels:
        if panel.fabrication_label is None:
            raise ValueError(
                f"panels: panel {panel.submission_id!r} has no fabrication_label"
            )
        if reviewer_id is None:
            predicted = panel.any_flag
        else:
            predicted = panel.review_by(reviewer_id).integrity_flag
        if panel.fabrication_label:
            tp += int(predicted)
            fn += int(not predicted)
        else:
            fp += int(predicted)
            tn += int(not predicted)
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
