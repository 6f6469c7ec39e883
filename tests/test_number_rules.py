"""Exact messages of the number arguments the ``core`` rules check.

One row per checked argument: a call and the ``ValueError`` message it
must raise, word for word.  Each rule converts with ``float`` first, so an
``int`` or ``np.float64`` argument shows as a float in the message, and a
NaN fails every "strictly in (0, 1)" check.
"""

import math

import numpy as np
import pytest

from panelcal import aggregate, bayes, bounds, calibrate, simulate
from panelcal.core import (
    BoundInputs,
    CalibrationRecord,
    DecisionThresholds,
    GaussianPosterior,
    NoiseProfile,
    ReviewerWeights,
    RubricSchema,
    RubricVector,
    ScoringFunctional,
)

INF, NAN = math.inf, math.nan
INPUTS = BoundInputs(sigma_w_sq=1.0, c_max=1.0)
WEIGHTS = ReviewerWeights((0.5, 0.5))
SCHEMA = RubricSchema.uniform(2, 1.0, 10.0)
LINEAR = ScoringFunctional.linear((0.5, 0.5))
PRIOR = GaussianPosterior(mean=5.0, variance=1.0)
CURVE = calibrate.IsotonicCurve(((1.0, 0.25, 1.0), (2.0, 0.75, 1.0)))
COHORT = simulate.generate_cohort(simulate.CohortSpec(
    n_papers=10,
    m_reviewers=2,
    latent=simulate.LatentDistribution.uniform(1.0, 10.0),
    noise=NoiseProfile((1.0, 1.0), (1.0, 10.0)),
    clip_mode="clip",
    seed=1,
))


def plan(edges):
    return calibrate.StratificationPlan(
        edges, ("accept",), (calibrate.CellQuota(0, "accept", 1, 1),)
    )


def thresholds(target_rate=0.3, tau_05=5.0):
    return DecisionThresholds(tau_rate=5.0, tau_05=tau_05, target_rate=target_rate,
                              calibration_size=10)


CASES = {
    # bounds
    "tail_bound.t": (lambda: bounds.tail_bound(0, INPUTS), "t: must be finite and > 0, got 0.0"),
    "tail_bound.t.inf": (lambda: bounds.tail_bound(INF, INPUTS),
                         "t: must be finite and > 0, got inf"),
    "margin.gamma": (lambda: bounds.margin_misclassification_bound(np.float64(-1), INPUTS),
                     "gamma: must be finite and > 0, got -1.0"),
    "scalar.gamma": (lambda: bounds.scalar_uniform_bound(2, NAN, 1.0, 1.0),
                     "gamma: must be finite and > 0, got nan"),
    "scalar.sigma_sq": (lambda: bounds.scalar_uniform_bound(2, 1.0, -1, 1.0),
                        "sigma_sq: must be finite and >= 0, got -1.0"),
    "scalar.range_width": (lambda: bounds.scalar_uniform_bound(2, 1.0, 0.0, 0),
                           "range_width: must be finite and > 0, got 0.0"),
    "rubric.lambda_max": (lambda: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, [1, -2]),
                          "lambda_max[1]: must be finite and >= 0, got -2.0"),
    "rubric.lambda_max.length": (
        lambda: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, [NAN]),
        "lambda_max: expected 2 entries, got 1",
    ),
    "dkw.delta": (lambda: bounds.dkw_bound(10, 1), "delta: must lie strictly in (0, 1), got 1.0"),
    "dkw.delta.nan": (lambda: bounds.dkw_bound(10, NAN),
                      "delta: must lie strictly in (0, 1), got nan"),
    "tau05.eps_pi": (lambda: bounds.tau05_error_bound(-1, 1.0, 0.0),
                     "eps_pi: must be finite and >= 0, got -1.0"),
    "tau05.c_min": (lambda: bounds.tau05_error_bound(0.1, 0, 0.0),
                    "c_min: must be finite and > 0, got 0.0"),
    "tau05.flat_width": (lambda: bounds.tau05_error_bound(0.1, 1.0, INF),
                         "flat_width: must be finite and >= 0, got inf"),
    # bayes
    "normal_quantile.p": (lambda: bayes.normal_quantile(0),
                          "p: must lie strictly in (0, 1), got 0.0"),
    "normal_quantile.p.nan": (lambda: bayes.normal_quantile(NAN),
                              "p: must lie strictly in (0, 1), got nan"),
    "calls.threshold": (lambda: bayes.acceptance_probability(PRIOR, np.float64(INF)),
                        "threshold: must be finite, got inf"),
    "calls.alpha": (lambda: bayes.credible_robust(PRIOR, 5, 1),
                    "alpha: must lie strictly in (0, 1), got 1.0"),
    "calls.alpha.nan": (lambda: bayes.credible_robust(PRIOR, 5.0, NAN),
                        "alpha: must lie strictly in (0, 1), got nan"),
    "solicit.new_review_variance": (lambda: bayes.solicit_worthwhile(PRIOR, 5.0, 0.05, 0),
                                    "new_review_variance: must be finite and > 0, got 0.0"),
    # core
    "RubricVector.values": (lambda: RubricVector((1, NAN)), "values[1]: must be finite, got nan"),
    "RubricVector.values.conversion": (lambda: RubricVector((INF, "x")),
                                       "could not convert string to float: 'x'"),
    "ScoringFunctional.coefficients": (lambda: ScoringFunctional.linear((np.float64(INF), 1)),
                                       "coefficients[0]: must be finite, got inf"),
    "NoiseProfile.per_reviewer_variance": (
        lambda: NoiseProfile((1, -1), (1.0, 10.0)),
        "per_reviewer_variance[1]: must be finite and >= 0, got -1.0",
    ),
    "DecisionThresholds.target_rate": (lambda: thresholds(target_rate=1),
                                       "target_rate: must lie strictly in (0, 1), got 1.0"),
    "DecisionThresholds.target_rate.nan": (lambda: thresholds(target_rate=NAN),
                                           "target_rate: must lie strictly in (0, 1), got nan"),
    "DecisionThresholds.tau_05": (lambda: thresholds(tau_05=INF),
                                  "tau_05: must be finite, got inf"),
    "BoundInputs.sigma_w_sq": (lambda: BoundInputs(NAN, 1.0), "sigma_w_sq: must be finite, got nan"),
    "BoundInputs.c_max": (lambda: BoundInputs(1, -INF), "c_max: must be finite, got -inf"),
    "CalibrationRecord.agent_score": (lambda: CalibrationRecord("c1", INF, True, "accept"),
                                      "agent_score: must be finite, got inf"),
    "GaussianPosterior.mean": (lambda: GaussianPosterior(np.float64(NAN), 1.0),
                               "mean: must be finite, got nan"),
    "GaussianPosterior.variance": (lambda: GaussianPosterior(0, INF),
                                   "variance: must be finite, got inf"),
    # aggregate
    "ConsensusRubric.values": (lambda: aggregate.ConsensusRubric((1, 2, -INF)),
                               "values[2]: must be finite, got -inf"),
    "gls_weights": (lambda: aggregate.gls_weights([1, 0]),
                    "projected_variances[1]: must be finite and > 0, got 0.0"),
    "panel_variance": (lambda: aggregate.panel_variance(WEIGHTS, [np.float64(-1), 1]),
                       "projected_variances[0]: must be finite and >= 0, got -1.0"),
    "panel_variance.length": (lambda: aggregate.panel_variance(WEIGHTS, [-1]),
                              "projected_variances: expected 2 entries, got 1"),
    "projected_variance": (lambda: aggregate.projected_variance([1, NAN], [1, 1]),
                           "variance_diagonal[1]: must be finite and >= 0, got nan"),
    "projected_variance.length": (lambda: aggregate.projected_variance([NAN], [1, 1]),
                                  "variance_diagonal: expected 2 entries, got 1"),
    # calibrate
    "StratificationPlan.bin_edges": (lambda: plan((0, INF)),
                                     "bin_edges[1]: must be finite, got inf"),
    "StratificationPlan.bin_edges.count": (lambda: plan((INF,)),
                                           "bin_edges: need at least 2 edges, got 1"),
    "rate_matching_threshold.target_rate": (
        lambda: calibrate.rate_matching_threshold([1.0, 2.0], 0),
        "target_rate: must lie strictly in (0, 1), got 0.0",
    ),
    "rate_matching_threshold.target_rate.nan": (
        lambda: calibrate.rate_matching_threshold([1.0, 2.0], NAN),
        "target_rate: must lie strictly in (0, 1), got nan",
    ),
    "tau_05.level": (lambda: calibrate.tau_05(CURVE, np.float64(1)),
                     "level: must lie strictly in (0, 1), got 1.0"),
    "tau_05.level.nan": (lambda: calibrate.tau_05(CURVE, NAN),
                         "level: must lie strictly in (0, 1), got nan"),
    # simulate
    "margin_experiment.threshold": (
        lambda: simulate.margin_experiment(COHORT, WEIGHTS, NAN, [0.0, 1.0]),
        "threshold: must be finite, got nan",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_number_argument_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
