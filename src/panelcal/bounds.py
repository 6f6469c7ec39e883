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
from typing import TYPE_CHECKING, Sequence

from .rules import integer, non_negative, open_unit, positive, sequence

if TYPE_CHECKING:
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


def _bernstein(scale: float, t: float, variance: float, influence: float) -> float:
    """exp(-scale t^2 / (2 variance + (2/3) influence t)), for t > 0.

    When both variance and influence are zero the deviation is
    deterministic, so the probability is 0 by convention.  Where the
    denominator underflows to 0, or it and t^2 overflow, the exponent is
    computed with both divided by t.
    """
    if variance == 0.0 and influence == 0.0:
        return 0.0
    denominator = 2.0 * variance + (2.0 / 3.0) * influence * t
    exponent = (scale * t * t) / denominator if denominator else math.nan
    if math.isnan(exponent):  # the denominator underflows, or it and t * t overflow
        exponent = scale * t / (2.0 * (variance / t) + (2.0 / 3.0) * influence)
    return math.exp(-exponent)


def tail_bound(t: float, inputs: BoundInputs) -> float:
    """One-sided deviation probability bound at deviation ``t`` > 0.

    Returns exp(-t^2 / (2 sigma_w^2 + (2/3) c_max t)), or 0 when both
    variance and influence are zero.
    """
    return _bernstein(1, positive("t", t), inputs.sigma_w_sq, inputs.c_max)


def margin_misclassification_bound(gamma: float, inputs: BoundInputs) -> float:
    """Misclassification bound at decision margin ``gamma`` = |mu_s - tau|.

    A thresholded decision flips only when the consensus deviates by at
    least the margin, so this is the tail bound evaluated at gamma.
    """
    return tail_bound(positive("gamma", gamma), inputs)


def scalar_uniform_bound(m: int, gamma: float, sigma_sq: float, range_width: float) -> float:
    """Misclassification bound for M uniformly weighted scalar reviews.

    Equal weights 1/M with common variance sigma_sq and score range width
    (b - a) give exp(-M gamma^2 / (2 sigma_sq + (2/3)(b - a) gamma)).
    """
    m = integer("m", m, 1)
    gamma = positive("gamma", gamma)
    sigma_sq = non_negative("sigma_sq", sigma_sq)
    return _bernstein(m, gamma, sigma_sq, positive("range_width", range_width))


def scalar_bound_inputs(weights: ReviewerWeights, noise: NoiseProfile) -> BoundInputs:
    """Bound inputs for weighted scalar reviews.

    sigma_w^2 = sum_m w_m^2 sigma_m^2 and c_max = max_m w_m (b - a).
    """
    from .core import BoundInputs  # here, so the bounds that take no objects load no core

    sequence("weights", weights.weights, "weights", noise.reviewer_count)
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
    from .core import BoundInputs

    lambdas = non_negative.each("lambda_max", lambda_max, len(weights))
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
    n_cal = integer("n_cal", n_cal, 1)
    delta = open_unit("delta", delta)
    # log(4) - log(delta), not log(4 / delta): 4 / delta overflows for a subnormal delta
    return math.sqrt((math.log(4.0) - math.log(delta)) / (2.0 * n_cal))


def tau05_error_bound(eps_pi: float, c_min: float, flat_width: float) -> float:
    """Error bound for the half-probability threshold.

    If the tail-probability curve is estimated within eps_pi, grows at
    rate at least c_min where it crosses 1/2, and is flat on a window no
    wider than flat_width around the crossing, the fitted crossing can sit
    anywhere in that window and a further eps_pi / c_min outside it, so it
    is within flat_width + eps_pi / c_min of the true one.
    """
    eps_pi = non_negative("eps_pi", eps_pi)
    c_min = positive("c_min", c_min)
    return non_negative("flat_width", flat_width) + eps_pi / c_min
