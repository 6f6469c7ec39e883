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
from typing import Sequence

import numpy as np

from .core import GaussianPosterior, finite, open_unit, positive, sequence
from .tables import left_sums

__all__ = [
    "normal_quantile",
    "posterior_update",
    "acceptance_probability",
    "credible_robust",
    "solicit_worthwhile",
    "posterior_arrays",
    "credible_calls",
]

_STD_NORMAL = NormalDist()


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    return _STD_NORMAL.inv_cdf(open_unit("p", p))


def posterior_update(
    prior: GaussianPosterior,
    reviews: Sequence[tuple[float, float]],
) -> GaussianPosterior:
    """Precision-weighted conjugate update with (score, variance) reviews (``posterior_arrays``).

    Posterior precision is the prior precision plus each review's
    precision; the mean is the precision-weighted average.  An empty
    review sequence returns the prior unchanged.
    """
    checked = []
    for i, review in enumerate(sequence("reviews", reviews, "(score, variance) pairs")):
        score, variance = sequence(f"reviews[{i}]", review, "numbers", 2)
        checked.append((finite(f"reviews[{i}].score", score), positive(f"reviews[{i}].variance", variance)))
    scores, variances = np.array(checked, dtype=float).reshape(-1, 2).T
    means, variances = posterior_arrays(prior, scores, variances, np.array([len(checked)]))
    return GaussianPosterior(mean=float(means[0]), variance=float(variances[0]))


def _calls(posterior: GaussianPosterior, threshold: float, alpha: float, new_variance: float):
    """``credible_calls`` of one posterior, after checking threshold and alpha."""
    calls = credible_calls(np.array([posterior.mean]), np.array([posterior.variance]),
                           finite("threshold", threshold), open_unit("alpha", alpha), new_variance)
    return [column.item() for column in calls]


def acceptance_probability(posterior: GaussianPosterior, threshold: float) -> float:
    """Posterior probability that latent quality reaches the threshold."""
    return _calls(posterior, threshold, 0.5, 1.0)[0]  # p_accept needs neither of the last two


def credible_robust(posterior: GaussianPosterior, threshold: float, alpha: float) -> bool:
    """True when the threshold lies outside the central (1 - alpha) interval.

    Equivalent to |threshold - mean| >= z_{1 - alpha/2} * posterior std,
    so the accept/reject call would survive the credible band.
    """
    return _calls(posterior, threshold, alpha, 1.0)[1]  # robust needs no new_review_variance


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
    new_review_variance = positive("new_review_variance", new_review_variance)
    return _calls(posterior, threshold, alpha, new_review_variance)[2]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # callers check the results
def posterior_arrays(
    prior: GaussianPosterior,
    scores: np.ndarray,
    variances: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``posterior_update`` of many panels at once: (means, variances).

    ``scores`` and ``variances`` hold every panel's reviews back to back,
    already checked finite (variances > 0); ``counts`` gives each panel's
    number of reviews.  The prior's precision and each review's are added
    in review order (``tables.left_sums``), and the mean takes a single
    division, so it is correctly rounded.
    """
    precision = left_sums(1.0 / variances, counts, 1.0 / prior.variance)
    weighted = left_sums(scores / variances, counts, prior.mean / prior.variance)
    return weighted / precision, 1.0 / precision


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def credible_calls(
    means: np.ndarray,
    variances: np.ndarray,
    threshold: float,
    alpha: float,
    new_review_variance: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``acceptance_probability``, ``credible_robust`` and ``solicit_worthwhile`` at once.

    Takes arrays of posterior means and variances.  The caller has checked
    what those functions check: a finite threshold, ``0 < alpha < 1`` and
    a finite ``new_review_variance > 0``.  ``p_accept`` is one minus the
    normal CDF of the threshold's z-score; ``solicit`` is never set where
    ``robust`` is.  Returns (p_accept, robust, solicit).
    """
    std = np.sqrt(variances)
    arguments = -((threshold - means) / std) / math.sqrt(2.0)
    p_accept = 1.0 - 0.5 * np.array([math.erfc(x) for x in arguments.tolist()])
    z = normal_quantile(1.0 - alpha / 2.0)
    gap = np.abs(threshold - means)
    robust = gap >= z * std
    std_next = np.sqrt(1.0 / (1.0 / variances + 1.0 / new_review_variance))
    return p_accept, robust, ~robust & (gap >= z * std_next)
