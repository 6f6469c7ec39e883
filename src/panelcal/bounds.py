"""Finite-sample reliability bounds for weighted consensus scores.

The central quantity is a Bernstein-style tail probability for the
deviation of the consensus score from its mean,

    Pr(dev >= t) <= exp(-t^2 / (2 sigma_w^2 + (2/3) c_max t)),

where sigma_w^2 bounds the weighted consensus variance and c_max is the
largest change any single review can induce in the consensus score.
Setting t to the margin |mu_s - tau| turns the tail bound into a
misclassification bound for thresholded decisions.  DKW-based threshold
error bounds for calibration live here too.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import BoundInputs, NoiseProfile, ReviewerWeights, RubricSchema, ScoringFunctional

__all__ = [
    "tail_bound",
    "margin_misclassification_bound",
    "scalar_uniform_bound",
    "scalar_bound_inputs",
    "rubric_bound_inputs",
    "dkw_bound",
    "tau05_error_bound",
]


def _weighted_square_sum(weights: Sequence[float], values: Sequence[float]) -> float:
    return sum(w * w * v for w, v in zip(weights, values))


def tail_bound(t: float, inputs: BoundInputs) -> float:
    """One-sided deviation probability bound at deviation ``t`` > 0.

    Returns exp(-t^2 / (2 sigma_w^2 + (2/3) c_max t)).  When both variance
    and influence are zero the consensus is deterministic, so the tail
    probability is 0 by convention.
    """
    t = float(t)
    if not math.isfinite(t) or t <= 0:
        raise ValueError(f"t: must be finite and > 0, got {t!r}")
    denominator = 2.0 * inputs.sigma_w_sq + (2.0 / 3.0) * inputs.c_max * t
    if denominator == 0.0:
        return 0.0
    return math.exp(-(t * t) / denominator)


def margin_misclassification_bound(gamma: float, inputs: BoundInputs) -> float:
    """Misclassification bound at decision margin ``gamma`` = |mu_s - tau|.

    A thresholded decision flips only when the consensus deviates by at
    least the margin, so this is the tail bound evaluated at gamma.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"gamma: must be finite and > 0, got {gamma!r}")
    return tail_bound(gamma, inputs)


def scalar_uniform_bound(m: int, gamma: float, sigma_sq: float, range_width: float) -> float:
    """Misclassification bound for M uniformly weighted scalar reviews.

    Equal weights 1/M with common variance sigma_sq and score range width
    (b - a) give exp(-M gamma^2 / (2 sigma_sq + (2/3)(b - a) gamma)).
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m: must be an integer >= 1, got {m!r}")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"gamma: must be finite and > 0, got {gamma!r}")
    sigma_sq = float(sigma_sq)
    if not math.isfinite(sigma_sq) or sigma_sq < 0:
        raise ValueError(f"sigma_sq: must be finite and >= 0, got {sigma_sq!r}")
    range_width = float(range_width)
    if not math.isfinite(range_width) or range_width <= 0:
        raise ValueError(f"range_width: must be finite and > 0, got {range_width!r}")
    denominator = 2.0 * sigma_sq + (2.0 / 3.0) * range_width * gamma
    return math.exp(-(m * gamma * gamma) / denominator)


def scalar_bound_inputs(weights: ReviewerWeights, noise: NoiseProfile) -> BoundInputs:
    """Bound inputs for weighted scalar reviews.

    sigma_w^2 = sum_m w_m^2 sigma_m^2 and c_max = max_m w_m (b - a).
    """
    if len(weights) != noise.reviewer_count:
        raise ValueError(
            f"weights: expected {noise.reviewer_count} entries, got {len(weights)}"
        )
    sigma_w_sq = _weighted_square_sum(weights.weights, noise.per_reviewer_variance)
    width = noise.range_width
    c_max = max(w * width for w in weights.weights)
    return BoundInputs(sigma_w_sq=sigma_w_sq, c_max=c_max)


def rubric_bound_inputs(
    weights: ReviewerWeights,
    schema: RubricSchema,
    functional: ScoringFunctional,
    lambda_max: Sequence[float],
) -> BoundInputs:
    """Bound inputs for rubric reviews through a Lipschitz scoring functional.

    Each reviewer's influence is c_m = L w_m sqrt(sum_k (b_k - a_k)^2) and
    the variance proxy is sigma_w^2 = L^2 sum_m w_m^2 lambda_m, where
    lambda_m bounds the top eigenvalue of reviewer m's rubric covariance.
    """
    lambdas = [float(v) for v in lambda_max]
    if len(lambdas) != len(weights):
        raise ValueError(f"lambda_max: expected {len(weights)} entries, got {len(lambdas)}")
    for m, v in enumerate(lambdas):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"lambda_max[{m}]: must be finite and >= 0, got {v!r}")
    lipschitz = functional.lipschitz_constant
    width_norm = math.sqrt(sum(w * w for w in schema.widths))
    sigma_w_sq = lipschitz * lipschitz * _weighted_square_sum(weights.weights, lambdas)
    c_max = max(lipschitz * w * width_norm for w in weights.weights)
    return BoundInputs(sigma_w_sq=sigma_w_sq, c_max=c_max)


def dkw_bound(n_cal: int, delta: float) -> float:
    """Uniform acceptance-rate estimation error at confidence 1 - delta.

    With n_cal calibration points, sup_tau |est(tau) - true(tau)| is at
    most sqrt(log(4 / delta) / (2 n_cal)) with probability >= 1 - delta.
    """
    if not isinstance(n_cal, int) or n_cal < 1:
        raise ValueError(f"n_cal: must be an integer >= 1, got {n_cal!r}")
    delta = float(delta)
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta: must lie strictly in (0, 1), got {delta!r}")
    return math.sqrt(math.log(4.0 / delta) / (2.0 * n_cal))


def tau05_error_bound(eps_pi: float, c_min: float, flat_width: float) -> float:
    """Error bound for the half-probability threshold.

    If the tail-probability curve is estimated within eps_pi, grows at
    rate at least c_min where it crosses 1/2, and is flat on a window no
    wider than flat_width around the crossing, the fitted crossing can sit
    anywhere in that window and a further eps_pi / c_min outside it, so it
    is within flat_width + eps_pi / c_min of the true one.
    """
    eps_pi = float(eps_pi)
    if not math.isfinite(eps_pi) or eps_pi < 0:
        raise ValueError(f"eps_pi: must be finite and >= 0, got {eps_pi!r}")
    c_min = float(c_min)
    if not math.isfinite(c_min) or c_min <= 0:
        raise ValueError(f"c_min: must be finite and > 0, got {c_min!r}")
    flat_width = float(flat_width)
    if not math.isfinite(flat_width) or flat_width < 0:
        raise ValueError(f"flat_width: must be finite and >= 0, got {flat_width!r}")
    return flat_width + eps_pi / c_min
