import math
import warnings

import numpy as np
import pytest

from panelcal.bayes import (
    acceptance_probability,
    credible_robust,
    normal_cdf,
    normal_quantile,
    posterior_update,
    solicit_worthwhile,
)
from panelcal.core import GaussianPosterior


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-9)
    with pytest.raises(ValueError, match="z"):
        normal_cdf(math.nan)


def test_normal_quantile_inverts_cdf():
    for p in (0.001, 0.025, 0.5, 0.84, 0.999):
        assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    with pytest.raises(ValueError, match="p"):
        normal_quantile(1.0)


def test_posterior_update_exact_fixture():
    post = posterior_update(GaussianPosterior(5.0, 4.0), [(7.0, 1.0)])
    assert post.mean == 6.6
    assert post.variance == 0.8


def test_posterior_update_empty_is_prior():
    prior = GaussianPosterior(5.0, 4.0)
    assert posterior_update(prior, []) == prior


def test_posterior_update_precision_additive():
    prior = GaussianPosterior(0.0, 2.0)
    post = posterior_update(prior, [(1.0, 1.0), (3.0, 0.5)])
    precision = 1 / 2.0 + 1 / 1.0 + 1 / 0.5
    assert post.variance == pytest.approx(1 / precision, rel=1e-15)
    assert post.mean == pytest.approx((0 / 2.0 + 1 / 1.0 + 3 / 0.5) / precision, rel=1e-15)
    with pytest.raises(ValueError, match=r"reviews\[0\]"):
        posterior_update(prior, [(1.0, 0.0)])


@pytest.mark.parametrize(
    ("reviews", "message"),
    [([(1e308, 1.0), (1e308, 1.0)], "mean: must be finite, got inf"),
     ([(1.0, 1e-320)], "mean: must be finite, got nan")],
    ids=["sum-overflows", "precision-overflows"],
)
def test_posterior_update_overflow_raises_without_numpy_warning(reviews, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            posterior_update(GaussianPosterior(5.0, 4.0), reviews)


def test_posterior_update_order_invariant():
    rng = np.random.default_rng(13)
    reviews = [(float(rng.normal(6, 2)), float(rng.uniform(0.2, 3.0))) for _ in range(8)]
    prior = GaussianPosterior(5.0, 4.0)
    base = posterior_update(prior, reviews)
    for _ in range(100):
        perm = list(reviews)
        rng.shuffle(perm)
        other = posterior_update(prior, perm)
        assert abs(other.mean - base.mean) <= 1e-12
        assert abs(other.variance - base.variance) <= 1e-12


def test_posterior_update_sequential_matches_batched():
    reviews = [(7.0, 1.0), (4.0, 2.0), (6.5, 0.5)]
    prior = GaussianPosterior(5.0, 4.0)
    batched = posterior_update(prior, reviews)
    sequential = prior
    for review in reviews:
        sequential = posterior_update(sequential, [review])
    assert sequential.mean == pytest.approx(batched.mean, abs=1e-12)
    assert sequential.variance == pytest.approx(batched.variance, abs=1e-12)


def test_acceptance_probability():
    post = GaussianPosterior(6.0, 4.0)
    assert acceptance_probability(post, 6.0) == pytest.approx(0.5, abs=1e-12)
    assert acceptance_probability(post, 2.0) == pytest.approx(normal_cdf(2.0), abs=1e-12)
    assert acceptance_probability(post, 10.0) == pytest.approx(1 - normal_cdf(2.0), abs=1e-12)
    with pytest.raises(ValueError, match="threshold"):
        acceptance_probability(post, math.inf)


def test_credible_robust_boundary():
    # margin 2, std 1: robust at alpha=0.05 (z=1.96) but not alpha=0.01 (z=2.58)
    post = GaussianPosterior(8.0, 1.0)
    assert credible_robust(post, 6.0, 0.05)
    assert not credible_robust(post, 6.0, 0.01)
    # mean 8, std 0.5 (variance 0.25), tau 7 is robust at alpha 0.05
    assert credible_robust(GaussianPosterior(8.0, 0.25), 7.0, 0.05)
    # the band's edge itself counts as robust
    assert credible_robust(GaussianPosterior(0.0, 1.0), normal_quantile(1.0 - 0.05 / 2.0), 0.05)
    with pytest.raises(ValueError, match="alpha"):
        credible_robust(post, 6.0, 0.0)


def test_solicit_worthwhile_logic():
    post = GaussianPosterior(7.0, 1.0)
    # margin 2: already robust, nothing to gain
    assert not solicit_worthwhile(post, 5.0, 0.05, 1.0)
    # margin 1.5 < 1.96: not robust; next std sqrt(1/2) gives z*std 1.386 < 1.5
    assert solicit_worthwhile(post, 5.5, 0.05, 1.0)
    # margin 0.1: another ordinary review leaves z*std_next at 1.386, too wide
    assert not solicit_worthwhile(post, 6.9, 0.05, 1.0)
    # but a near-noiseless review could settle even that margin
    assert solicit_worthwhile(post, 6.9, 0.05, 1e-6)
    with pytest.raises(ValueError, match="new_review_variance"):
        solicit_worthwhile(post, 5.5, 0.05, 0.0)


def test_solicit_never_true_when_robust():
    rng = np.random.default_rng(19)
    for _ in range(200):
        post = GaussianPosterior(float(rng.normal(5, 2)), float(rng.uniform(0.1, 4.0)))
        tau = float(rng.normal(5, 2))
        alpha = float(rng.uniform(0.01, 0.3))
        var = float(rng.uniform(0.1, 4.0))
        if credible_robust(post, tau, alpha):
            assert not solicit_worthwhile(post, tau, alpha, var)
