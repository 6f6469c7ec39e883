"""Conjugate Gaussian belief updates and credible accept/reject decisions.

Reviews arrive as (score, variance) pairs; the posterior over latent
quality is the precision-weighted conjugate update of a Gaussian prior.
A decision is credible-robust when the threshold sits outside the
central credible interval, and soliciting one more review is worthwhile
only when the current call is ambiguous but the post-solicitation
interval could exclude the threshold.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable, Sequence

import numpy as np

from .core import GaussianPosterior

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "posterior_update",
    "acceptance_probability",
    "credible_robust",
    "solicit_worthwhile",
    "posterior_arrays",
    "credible_calls",
]

_STD_NORMAL = NormalDist()


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    z = float(z)
    if math.isnan(z):
        raise ValueError("z: must not be NaN")
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p: must lie strictly in (0, 1), got {p!r}")
    return _STD_NORMAL.inv_cdf(p)


def posterior_update(
    prior: GaussianPosterior,
    reviews: Sequence[tuple[float, float]],
) -> GaussianPosterior:
    """Precision-weighted conjugate update with (score, variance) reviews.

    Posterior precision is the prior precision plus each review's
    precision; the mean is the precision-weighted average.  An empty
    review sequence returns the prior unchanged.
    """
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
    # single division keeps the mean correctly rounded
    return GaussianPosterior(mean=weighted / precision, variance=1.0 / precision)


def acceptance_probability(posterior: GaussianPosterior, threshold: float) -> float:
    """Posterior probability that latent quality reaches the threshold."""
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    return 1.0 - normal_cdf((threshold - posterior.mean) / posterior.std)


def credible_robust(posterior: GaussianPosterior, threshold: float, alpha: float) -> bool:
    """True when the threshold lies outside the central (1 - alpha) interval.

    Equivalent to |threshold - mean| >= z_{1 - alpha/2} * posterior std,
    so the accept/reject call would survive the credible band.
    """
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
    """Whether one more review of the given variance could settle the call.

    False when the decision is already credible-robust.  Otherwise the
    posterior std after one more review is computed; soliciting is
    worthwhile only if the current margin would clear the credible band
    at that tighter std (best case: the new review confirms the mean).
    """
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


def posterior_arrays(
    prior: GaussianPosterior,
    scores: np.ndarray,
    variances: np.ndarray,
    panel_sums: Callable[[np.ndarray, float], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``posterior_update`` of many panels at once: (means, variances).

    ``scores`` and ``variances`` hold every panel's reviews back to back,
    already checked finite (variances > 0).  ``panel_sums(values, start)``
    adds each panel's values to ``start`` one at a time in review order,
    the order ``posterior_update`` accumulates in, so results match it bit
    for bit.
    """
    precision = panel_sums(1.0 / variances, 1.0 / prior.variance)
    weighted = panel_sums(scores / variances, prior.mean / prior.variance)
    return weighted / precision, 1.0 / precision


def credible_calls(
    means: np.ndarray,
    variances: np.ndarray,
    threshold: float,
    alpha: float,
    new_review_variance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``acceptance_probability``, ``credible_robust`` and ``solicit_worthwhile`` at once.

    Takes arrays of posterior means and variances and repeats the scalar
    functions' float operations in their order, so every entry matches
    them bit for bit.  The caller has checked what they check: a finite
    threshold, ``0 < alpha < 1`` and a finite ``new_review_variance > 0``.
    Returns (p_accept, robust, solicit).
    """
    std = np.sqrt(variances)
    arguments = -((threshold - means) / std) / math.sqrt(2.0)
    p_accept = 1.0 - 0.5 * np.array([math.erfc(x) for x in arguments.tolist()])
    z = normal_quantile(1.0 - alpha / 2.0)
    gap = np.abs(threshold - means)
    robust = gap >= z * std
    std_next = np.sqrt(1.0 / (1.0 / variances + 1.0 / new_review_variance))
    return p_accept, robust, ~robust & (gap >= z * std_next)
