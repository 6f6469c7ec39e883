"""Conjugate Gaussian belief updates and credible accept/reject decisions.

Reviews arrive as (score, variance) pairs; the posterior over latent
quality is the precision-weighted conjugate update of a Gaussian prior.
A decision is credible-robust when the threshold sits outside the
central credible interval, and soliciting one more review is worthwhile
only when the current call is ambiguous but the post-solicitation
interval could exclude the threshold.

This module defines ``GaussianPosterior``, which only the ``bayes``
command and the object API build, and the column kernels
``posterior_arrays`` and ``credible_calls``, which take arrays of many
panels; ``core`` re-exports ``GaussianPosterior``.  The one-posterior
forms (``posterior_update``, ``acceptance_probability``,
``credible_robust`` and ``solicit_worthwhile``) are defined in
``panelcal.objects``; this module re-exports them and imports that
module on first use of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import _lazy
from .rules import finite, open_unit, positive
from .tables import left_sums

__all__ = [
    "GaussianPosterior",
    "normal_quantile",
    "posterior_update",
    "acceptance_probability",
    "credible_robust",
    "solicit_worthwhile",
    "posterior_arrays",
    "credible_calls",
]

__getattr__, __dir__ = _lazy(__name__, {
    "objects": ("posterior_update", "acceptance_probability", "credible_robust", "solicit_worthwhile"),
})

_STD_NORMAL = NormalDist()


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian belief over the latent quality of one submission."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", finite("mean", self.mean))
        object.__setattr__(self, "variance", positive("variance", self.variance))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    return _STD_NORMAL.inv_cdf(open_unit("p", p))


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
    a finite ``new_review_variance > 0``.  ``p_accept`` is the normal upper
    tail at the threshold's z-score, ½·erfc(z/√2), taken directly rather
    than as one minus the CDF, which cancels to 0 for tails below about
    1e-16; ``solicit`` is never set where ``robust`` is.  Returns
    (p_accept, robust, solicit).
    """
    std = np.sqrt(variances)
    arguments = ((threshold - means) / std) / math.sqrt(2.0)
    p_accept = 0.5 * np.fromiter(map(math.erfc, arguments.tolist()), float, count=arguments.size)
    z = normal_quantile(1.0 - alpha / 2.0)
    gap = np.abs(threshold - means)
    robust = gap >= z * std
    std_next = np.sqrt(1.0 / (1.0 / variances + 1.0 / new_review_variance))
    return p_accept, robust, ~robust & (gap >= z * std_next)
