import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from panelcal.bounds import (
    dkw_bound,
    margin_misclassification_bound,
    rubric_bound_inputs,
    scalar_bound_inputs,
    scalar_uniform_bound,
    tail_bound,
    tau05_error_bound,
)
from panelcal.core import (
    BoundInputs,
    NoiseProfile,
    ReviewerWeights,
    RubricSchema,
    ScoringFunctional,
)


def test_tail_bound_closed_form():
    inputs = BoundInputs(sigma_w_sq=0.25, c_max=0.5)
    # exp(-4 / (0.5 + (2/3) * 0.5 * 2)) = exp(-24/7)
    assert tail_bound(2.0, inputs) == pytest.approx(math.exp(-24.0 / 7.0), rel=1e-12)
    with pytest.raises(ValueError, match="t"):
        tail_bound(0.0, inputs)


def test_tail_bound_degenerate_is_zero():
    assert tail_bound(1.0, BoundInputs(0.0, 0.0)) == 0.0


def test_tail_bound_monotone_in_deviation_and_variance():
    inputs = BoundInputs(0.3, 0.4)
    ts = np.linspace(0.1, 5.0, 40)
    values = [tail_bound(t, inputs) for t in ts]
    assert all(a >= b for a, b in zip(values, values[1:]))
    grown = [tail_bound(1.0, BoundInputs(s, 0.4)) for s in np.linspace(0.01, 2.0, 40)]
    assert all(a <= b for a, b in zip(grown, grown[1:]))
    assert all(0.0 < v < 1.0 for v in values)


FINITE = st.floats(min_value=0.0, max_value=1.7976931348623157e308)


@given(FINITE.filter(lambda t: t > 0), FINITE, FINITE, st.integers(1, 10**6))
def test_bounds_stay_probabilities_for_huge_inputs(t, sigma_sq, c_max, m):
    # near the ends of the float range the denominator underflows to 0, or it and t * t
    # overflow to inf / inf
    value = tail_bound(t, BoundInputs(sigma_sq, c_max))
    assert 0.0 <= value <= 1.0
    if c_max > 0:
        value = scalar_uniform_bound(m, t, sigma_sq, c_max)
        assert 0.0 <= value <= 1.0


def test_margin_bound_equals_tail_at_gamma():
    inputs = BoundInputs(0.25, 0.5)
    assert margin_misclassification_bound(0.7, inputs) == tail_bound(0.7, inputs)
    with pytest.raises(ValueError, match="gamma"):
        margin_misclassification_bound(-1.0, inputs)


def test_scalar_uniform_bound_frozen_value():
    # exp(-3 * 1 / (2 + (2/3) * 9)) = exp(-3/8)
    assert scalar_uniform_bound(3, 1.0, 1.0, 9.0) == pytest.approx(
        math.exp(-0.375), rel=1e-12
    )
    assert f"{scalar_uniform_bound(3, 1.0, 1.0, 9.0):.6g}" == "0.687289"


MAX = 1.7976931348623157e308
TINY = 5e-324  # the smallest subnormal


@given(
    st.integers(1, 50),
    st.floats(min_value=TINY, max_value=MAX),
    st.floats(min_value=0.0, max_value=MAX),
    st.floats(min_value=TINY, max_value=MAX),
)
@example(1, TINY, 0.0, TINY)  # the denominator underflows to 0
@example(50, 1e-160, 1e-320, 1e-170)
@example(3, MAX, MAX, MAX)  # m gamma^2 and the denominator overflow
@example(50, 1e308, 0.0, 1e-10)
@example(7, 1e154, 1e308, 1e-300)
def test_shared_exponent_matches_the_scalar_formula_bit_for_bit(m, gamma, sigma_sq, width):
    expected = reference.scalar_uniform_bound(m, gamma, sigma_sq, width)
    assert scalar_uniform_bound(m, gamma, sigma_sq, width).hex() == expected.hex()
    expected = reference.scalar_uniform_bound(1, gamma, sigma_sq, width)  # tail_bound's formula
    assert tail_bound(gamma, BoundInputs(sigma_sq, width)).hex() == expected.hex()


def test_scalar_uniform_bound_decreases_with_panel_size():
    values = [scalar_uniform_bound(m, 0.8, 1.0, 9.0) for m in range(1, 9)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_scalar_uniform_matches_general_route():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(1, 7))
        gamma = float(rng.uniform(0.05, 3.0))
        sigma_sq = float(rng.uniform(0.0, 4.0))
        lo, width = float(rng.uniform(0, 5)), float(rng.uniform(0.5, 9.0))
        noise = NoiseProfile((sigma_sq,) * m, (lo, lo + width))
        inputs = scalar_bound_inputs(ReviewerWeights.uniform(m), noise)
        direct = scalar_uniform_bound(m, gamma, sigma_sq, width)
        general = margin_misclassification_bound(gamma, inputs)
        assert general == pytest.approx(direct, rel=1e-12)


def test_scalar_bound_inputs():
    noise = NoiseProfile((1.0, 4.0), (1.0, 10.0))
    inputs = scalar_bound_inputs(ReviewerWeights((0.75, 0.25)), noise)
    assert inputs.sigma_w_sq == pytest.approx(0.75**2 * 1.0 + 0.25**2 * 4.0)
    assert inputs.c_max == pytest.approx(0.75 * 9.0)
    with pytest.raises(ValueError, match="weights"):
        scalar_bound_inputs(ReviewerWeights.uniform(3), noise)


def test_rubric_bound_inputs_closed_form():
    schema = RubricSchema.uniform(4, 1.0, 10.0)
    functional = ScoringFunctional.mean(4)
    weights = ReviewerWeights((0.5, 0.5))
    inputs = rubric_bound_inputs(weights, schema, functional, (2.0, 2.0))
    lipschitz = functional.lipschitz_constant
    assert lipschitz == pytest.approx(0.5)
    assert inputs.sigma_w_sq == pytest.approx(lipschitz**2 * (0.25 * 2.0 + 0.25 * 2.0))
    assert inputs.c_max == pytest.approx(lipschitz * 0.5 * math.sqrt(4 * 81.0))
    with pytest.raises(ValueError, match=r"lambda_max\[1\]"):
        rubric_bound_inputs(weights, schema, functional, (1.0, -1.0))


def test_scalar_and_rubric_routes_agree_for_single_criterion():
    # K = 1 with the identity functional is the scalar setting exactly.
    schema = RubricSchema.uniform(1, 1.0, 10.0)
    functional = ScoringFunctional.linear((1.0,))
    for m in (1, 2, 5):
        weights = ReviewerWeights.uniform(m)
        noise = NoiseProfile((1.7,) * m, (1.0, 10.0))
        scalar = scalar_bound_inputs(weights, noise)
        rubric = rubric_bound_inputs(weights, schema, functional, (1.7,) * m)
        assert rubric.sigma_w_sq == scalar.sigma_w_sq
        assert rubric.c_max == scalar.c_max


def test_dkw_bound_frozen_value():
    assert dkw_bound(200, 0.05) == pytest.approx(
        math.sqrt(math.log(80.0) / 400.0), rel=1e-12
    )
    assert abs(dkw_bound(200, 0.05) - 0.104666) < 1e-6
    # 4 / delta overflows to inf for a subnormal delta; log(4) - log(delta) does not
    assert f"{dkw_bound(5, 1e-320):.6g}" == "8.59194"
    assert f"{dkw_bound(1, 5e-324):.6g}" == "19.311"
    with pytest.raises(ValueError, match="n_cal"):
        dkw_bound(0, 0.05)
    with pytest.raises(ValueError, match="delta"):
        dkw_bound(200, 1.0)


def test_dkw_bound_shrinks_like_inverse_sqrt():
    assert dkw_bound(800, 0.05) == pytest.approx(dkw_bound(200, 0.05) / 2.0, rel=1e-12)


def test_tau05_error_bound():
    assert tau05_error_bound(0.1, 0.5, 1.0) == pytest.approx(1.2)
    assert tau05_error_bound(0.4, 0.5, 0.25) == pytest.approx(1.05)
    # a curve with no flat spot still leaves the estimation error
    assert tau05_error_bound(0.3, 0.1, 0.0) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="c_min"):
        tau05_error_bound(0.1, 0.0, 1.0)
