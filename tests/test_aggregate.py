import math

import numpy as np
import pytest

from panelcal.aggregate import (
    ConsensusRubric,
    Decision,
    consensus_rubric,
    decide,
    gls_weights,
    panel_variance,
    projected_variance,
    score,
)
from panelcal.core import (
    ReviewerWeights,
    ReviewPanel,
    ReviewRecord,
    RubricSchema,
    RubricVector,
    ScoringFunctional,
    left_sum,
)


def make_panel():
    return ReviewPanel(
        "p1",
        (
            ReviewRecord("r1", RubricVector((4.0, 6.0, 8.0))),
            ReviewRecord("r2", RubricVector((6.0, 6.0, 2.0))),
        ),
    )


def test_consensus_rubric_weighted_mean():
    consensus = consensus_rubric(make_panel(), ReviewerWeights((0.75, 0.25)))
    assert consensus.values == (4.5, 6.0, 6.5)


def test_consensus_requires_matching_weight_count():
    with pytest.raises(ValueError, match="weights"):
        consensus_rubric(make_panel(), ReviewerWeights((0.5, 0.25, 0.25)))


def test_consensus_uniform_matches_mean():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, k = rng.integers(1, 5), rng.integers(1, 4)
        reviews = tuple(
            ReviewRecord(f"r{i}", RubricVector(tuple(rng.uniform(1, 10, k))))
            for i in range(m)
        )
        panel = ReviewPanel("p", reviews)
        consensus = consensus_rubric(panel, ReviewerWeights.uniform(m))
        expected = np.mean([r.rubric.values for r in reviews], axis=0)
        np.testing.assert_allclose(consensus.values, expected, rtol=1e-12)


def test_score_linear_and_overall_pick():
    consensus = ConsensusRubric((4.5, 6.0, 6.5))
    lin = ScoringFunctional.linear((0.5, 0.25, 0.25))
    assert score(consensus, lin) == pytest.approx(5.375)
    schema = RubricSchema.uniform(3, 1.0, 10.0, overall_index=2)
    pick = ScoringFunctional.overall_pick()
    assert score(consensus, pick, schema=schema) == 6.5
    with pytest.raises(ValueError, match="schema"):
        score(consensus, pick)
    with pytest.raises(ValueError, match="coefficients"):
        score(consensus, ScoringFunctional.linear((1.0,)))


def test_decide_boundary_inclusive():
    accept = decide(7.0, 7.0)
    assert accept.accept and accept.margin == 0.0
    reject = decide(6.999, 7.0)
    assert not reject.accept
    assert reject.margin == pytest.approx(-0.001)
    unreachable = decide(9.0, math.inf)
    assert not unreachable.accept and unreachable.margin == -math.inf


def test_decision_consistency_enforced():
    with pytest.raises(ValueError, match="accept"):
        Decision(6.0, 7.0, True, -1.0)
    with pytest.raises(ValueError, match="margin"):
        Decision(6.0, 7.0, False, -0.5)


def test_weights_are_summed_left_to_right():
    # builtin sum gives 1.0 here from Python 3.12 (compensated summation)
    total = left_sum([0.1] * 10)
    assert total == 0.9999999999999999
    assert ReviewerWeights((0.1,) * 10).weights == (0.1 / total,) * 10
    # six inverse variances of 1/3: here the two orders give different weights
    inverse = [1.0 / 3.0] * 6
    assert left_sum(inverse) != math.fsum(inverse)
    expected = ReviewerWeights(tuple(x / left_sum(inverse) for x in inverse))
    assert gls_weights((3.0,) * 6) == expected
    assert expected != ReviewerWeights(tuple(x / math.fsum(inverse) for x in inverse))


def test_gls_weights_inverse_variance():
    w = gls_weights((1.0, 2.0, 4.0))
    assert w.weights == pytest.approx((4 / 7, 2 / 7, 1 / 7))
    assert panel_variance(w, (1.0, 2.0, 4.0)) == pytest.approx(4 / 7)
    with pytest.raises(ValueError, match=r"projected_variances\[0\]"):
        gls_weights((0.0, 1.0))


def test_gls_beats_uniform():
    rng = np.random.default_rng(11)
    for _ in range(50):
        variances = tuple(rng.uniform(0.1, 5.0, rng.integers(2, 6)))
        best = panel_variance(gls_weights(variances), variances)
        uniform = panel_variance(ReviewerWeights.uniform(len(variances)), variances)
        assert best <= uniform + 1e-12


def test_panel_variance_matches_definition():
    weights = ReviewerWeights((0.5, 0.3, 0.2))
    variances = (1.0, 2.0, 3.0)
    expected = sum(w * w * v for w, v in zip(weights.weights, variances))
    assert panel_variance(weights, variances) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError, match="projected_variances"):
        panel_variance(weights, (1.0,))


def test_projected_variance():
    assert projected_variance((1.0, 4.0), (0.5, 0.25)) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="variance_diagonal"):
        projected_variance((1.0,), (0.5, 0.5))
