"""Exact messages of the number arguments the ``rules`` rules check.

One row per checked argument: a call and the ``ValueError`` message it
must raise, word for word.  Each float rule converts with
``rules.json_number`` first, so an ``int`` or a numpy number shows as a
float in the message, an integer beyond the float range as an infinity,
and a bool or a string as it was given; a NaN fails every "strictly in
(0, 1)" check.  The integer rule refuses a bool and a float, takes a numpy
integer and stores a plain ``int``.  The config's number leaves are the
same rules worded without a field.  The last section holds the shape of
each sequence argument, which ``rules.sequence`` checks: a bare value, a
string and a 0-d array are no sequence, and an empty sequence or a wrong
length is refused where the argument asks for entries.
"""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from panelcal import aggregate, bayes, bounds, calibrate, config, metrics, rules, simulate, strata
from panelcal.core import (
    BoundInputs,
    CalibrationRecord,
    ConfusionCounts,
    DecisionThresholds,
    GaussianPosterior,
    NoiseProfile,
    ReviewerWeights,
    ReviewPanel,
    ReviewRecord,
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


PANEL = ReviewPanel("p1", (ReviewRecord("m1", RubricVector((5.0,)), integrity_flag=True),))
ONE = [CalibrationRecord("c1", 1.0, True, "accept")]


def plan(edges, vocabulary=("accept",)):
    return calibrate.StratificationPlan(
        edges, vocabulary, (calibrate.CellQuota(0, "accept", 1, 1),)
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
    "rubric.lambda_max.string": (lambda: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, ["2", True]),
                                 "lambda_max[0]: must be finite and >= 0, got '2'"),
    "rubric.lambda_max.scalar": (lambda: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, 2.0),
                                 "lambda_max: must be a sequence of numbers"),
    "rubric.lambda_max.length": (
        lambda: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, [NAN]),
        "lambda_max: expected 2 entries, got 1",
    ),
    "dkw.delta": (lambda: bounds.dkw_bound(10, 1), "delta: must lie strictly in (0, 1), got 1.0"),
    "dkw.delta.nan": (lambda: bounds.dkw_bound(10, NAN),
                      "delta: must lie strictly in (0, 1), got nan"),
    "dkw.delta.huge": (lambda: bounds.dkw_bound(10, 10**400),
                       "delta: must lie strictly in (0, 1), got inf"),
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
    "posterior_update.score": (lambda: bayes.posterior_update(PRIOR, [(1.0, 1.0), (NAN, 1.0)]),
                               "reviews[1].score: must be finite, got nan"),
    "posterior_update.score.string": (lambda: bayes.posterior_update(PRIOR, [("5", 1.0)]),
                                      "reviews[0].score: must be finite, got '5'"),
    "posterior_update.variance": (lambda: bayes.posterior_update(PRIOR, [(1.0, 0)]),
                                  "reviews[0].variance: must be finite and > 0, got 0.0"),
    "posterior_update.variance.bool": (lambda: bayes.posterior_update(PRIOR, [(1.0, True)]),
                                       "reviews[0].variance: must be finite and > 0, got True"),
    # core
    "RubricVector.values": (lambda: RubricVector((1, NAN)), "values[1]: must be finite, got nan"),
    "RubricVector.values.conversion": (lambda: RubricVector((1, "x")),
                                       "values[1]: must be finite, got 'x'"),
    "RubricSchema.bounds": (lambda: RubricSchema(2, ((0, 1), (0, INF))),
                            "bounds[1][1]: must be finite, got inf"),
    "RubricSchema.bounds.bool": (lambda: RubricSchema(1, ((False, 1),)),
                                 "bounds[0][0]: must be finite, got False"),
    "NoiseProfile.scalar_bounds": (lambda: NoiseProfile((1.0,), (NAN, 10.0)),
                                   "scalar_bounds[0]: must be finite, got nan"),
    "NoiseProfile.scalar_bounds.order": (lambda: NoiseProfile((1.0,), (10, 1)),
                                         "scalar_bounds: must be a pair lo < hi, got (10.0, 1.0)"),
    "NoiseProfile.scalar_bounds.length": (lambda: NoiseProfile((1.0,), (1, 10, 20)),
                                          "scalar_bounds: must be a pair lo < hi, got (1.0, 10.0, 20.0)"),
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
    "DecisionThresholds.tau_rate": (lambda: DecisionThresholds(NAN, 5.0, 0.3, 10),
                                    "tau_rate: must not be NaN, got nan"),
    "DecisionThresholds.tau_rate.string": (lambda: DecisionThresholds("inf", 5.0, 0.3, 10),
                                           "tau_rate: must not be NaN, got 'inf'"),
    "BoundInputs.sigma_w_sq": (lambda: BoundInputs(NAN, 1.0),
                               "sigma_w_sq: must be finite and >= 0, got nan"),
    "BoundInputs.sigma_w_sq.negative": (lambda: BoundInputs(-1, 1.0),
                                        "sigma_w_sq: must be finite and >= 0, got -1.0"),
    "BoundInputs.sigma_w_sq.inf": (lambda: BoundInputs(INF, 1.0),
                                   "sigma_w_sq: must be finite and >= 0, got inf"),
    "BoundInputs.c_max": (lambda: BoundInputs(1, -INF), "c_max: must be finite and >= 0, got -inf"),
    "BoundInputs.c_max.negative": (lambda: BoundInputs(1, np.float64(-0.5)),
                                   "c_max: must be finite and >= 0, got -0.5"),
    "BoundInputs.c_max.nan": (lambda: BoundInputs(1, NAN), "c_max: must be finite and >= 0, got nan"),
    "BoundInputs.c_max.inf": (lambda: BoundInputs(1, INF), "c_max: must be finite and >= 0, got inf"),
    "CalibrationRecord.agent_score": (lambda: CalibrationRecord("c1", INF, True, "accept"),
                                      "agent_score: must be finite, got inf"),
    "GaussianPosterior.mean": (lambda: GaussianPosterior(np.float64(NAN), 1.0),
                               "mean: must be finite, got nan"),
    "GaussianPosterior.mean.bool": (lambda: GaussianPosterior(True, 1.0), "mean: must be finite, got True"),
    "GaussianPosterior.mean.string": (lambda: GaussianPosterior("1.5", 1.0),
                                      "mean: must be finite, got '1.5'"),
    "GaussianPosterior.mean.huge": (lambda: GaussianPosterior(10**400, 1.0), "mean: must be finite, got inf"),
    "GaussianPosterior.variance": (lambda: GaussianPosterior(0, INF),
                                   "variance: must be finite and > 0, got inf"),
    "GaussianPosterior.variance.zero": (lambda: GaussianPosterior(0, 0),
                                        "variance: must be finite and > 0, got 0.0"),
    "GaussianPosterior.variance.negative": (lambda: GaussianPosterior(0, np.float64(-1)),
                                            "variance: must be finite and > 0, got -1.0"),
    "GaussianPosterior.variance.nan": (lambda: GaussianPosterior(0, NAN),
                                       "variance: must be finite and > 0, got nan"),
    "GaussianPosterior.variance.-inf": (lambda: GaussianPosterior(0, -INF),
                                        "variance: must be finite and > 0, got -inf"),
    "ReviewerWeights.weights": (lambda: ReviewerWeights((1.5, -0.5)),
                                "weights[1]: must be finite and >= 0, got -0.5"),
    "ReviewerWeights.weights.nan": (lambda: ReviewerWeights((0.5, NAN)),
                                    "weights[1]: must be finite and >= 0, got nan"),
    "ReviewerWeights.weights.inf": (lambda: ReviewerWeights((np.float64(INF), 0.5)),
                                    "weights[0]: must be finite and >= 0, got inf"),
    "ReviewerWeights.weights.-inf": (lambda: ReviewerWeights((-INF, 1)),
                                     "weights[0]: must be finite and >= 0, got -inf"),
    # aggregate
    "Decision.score": (lambda: aggregate.Decision(INF, 1.0, True, INF), "score: must be finite, got inf"),
    "Decision.score.bool": (lambda: aggregate.Decision(True, 1.0, True, 0.0),
                            "score: must be finite, got True"),
    "Decision.threshold": (lambda: aggregate.Decision(1.0, NAN, False, NAN),
                           "threshold: must not be NaN, got nan"),
    "ConsensusRubric.values": (lambda: aggregate.ConsensusRubric((1, 2, -INF)),
                               "values[2]: must be finite, got -inf"),
    "gls_weights": (lambda: aggregate.gls_weights([1, 0]),
                    "projected_variances[1]: must be finite and > 0, got 0.0"),
    "gls_weights.scalar": (lambda: aggregate.gls_weights(2.0),
                           "projected_variances: must be a sequence of numbers"),
    "panel_variance": (lambda: aggregate.panel_variance(WEIGHTS, [np.float64(-1), 1]),
                       "projected_variances[0]: must be finite and >= 0, got -1.0"),
    "panel_variance.scalar": (lambda: aggregate.panel_variance(WEIGHTS, np.float64(2.0)),
                              "projected_variances: must be a sequence of numbers"),
    "panel_variance.length": (lambda: aggregate.panel_variance(WEIGHTS, [-1]),
                              "projected_variances: expected 2 entries, got 1"),
    "panel_variance.string": (lambda: aggregate.panel_variance(WEIGHTS, ["1", True]),
                              "projected_variances[0]: must be finite and >= 0, got '1'"),
    "panel_variance.bool": (lambda: aggregate.panel_variance(WEIGHTS, [1.0, True]),
                            "projected_variances[1]: must be finite and >= 0, got True"),
    # metrics
    "conflict_rate.threshold": (lambda: metrics.conflict_rate([PANEL], {"p1": 5.0}, NAN),
                                "threshold: must not be NaN, got nan"),
    "conflict_rate.scores": (lambda: metrics.conflict_rate([PANEL], {"p1": "7"}, 5.0),
                             "scores['p1']: must be finite, got '7'"),
    "conflict_rate.scores.nan": (lambda: metrics.conflict_rate([PANEL], {"p1": NAN}, 5.0),
                                 "scores['p1']: must be finite, got nan"),
    "DetectorMetrics.tpr": (lambda: metrics.DetectorMetrics(1.5, None, 0.5, 0.5),
                            "tpr: must lie in [0, 1], got 1.5"),
    "DetectorMetrics.tpr.string": (lambda: metrics.DetectorMetrics("0.5", None, 0.5, 0.5),
                                   "tpr: must lie in [0, 1], got '0.5'"),
    "DetectorMetrics.accuracy.bool": (lambda: metrics.DetectorMetrics(None, None, True, 0.5),
                                      "accuracy: must lie in [0, 1], got True"),
    # calibrate
    "StratificationPlan.bin_edges": (lambda: plan((0, INF)),
                                     "bin_edges[1]: must be finite, got inf"),
    "StratificationPlan.bin_edges.count": (lambda: plan((INF,)),
                                           "bin_edges: need at least 2 edges, got 1"),
    "StratificationPlan.bin_edges.nan": (lambda: plan((0, NAN, 1)), "bin_edges[1]: must be finite, got nan"),
    "StratificationPlan.bin_edges.decreasing": (lambda: plan((1, 0)),
                                                "bin_edges: must be strictly increasing, got [1.0, 0.0]"),
    "StratificationPlan.status_vocabulary": (lambda: plan((0, 1), ("accept", "accept")),
                                             "status_vocabulary: entries must be unique"),
    "StratificationPlan.status_vocabulary.empty": (lambda: plan((0, 1), ()),
                                                   "status_vocabulary: must be non-empty"),
    "StratificationPlan.status_vocabulary.unhashable": (
        lambda: plan((0, 1), ("accept", ["accept"])),
        "status_vocabulary: entries must be non-empty strings",
    ),
    "allocate_quotas.bin_edges": (lambda: calibrate.allocate_quotas({}, 1, (), ("accept",)),
                                  "bin_edges: need at least 2 edges, got 0"),
    "allocate_quotas.bin_edges.decreasing": (
        lambda: calibrate.allocate_quotas({}, 1, (2.0, 1.0), ("accept",)),
        "bin_edges: must be strictly increasing, got [2.0, 1.0]",
    ),
    "allocate_quotas.status_vocabulary": (lambda: calibrate.allocate_quotas({}, 1, (0, 1), ("a", "a")),
                                          "status_vocabulary: entries must be unique"),
    "empirical_acceptance.threshold": (lambda: calibrate.empirical_acceptance([1.0, 2.0], NAN),
                                       "threshold: must not be NaN, got nan"),
    "empirical_acceptance.scores.scalar": (lambda: calibrate.empirical_acceptance(5.0, 1.0),
                                           "scores: must be a sequence of numbers"),
    "empirical_acceptance.scores.0-d": (lambda: calibrate.empirical_acceptance(np.array(5.0), 1.0),
                                        "scores: must be a sequence of numbers"),
    "tau05_from_scores.scores.scalar": (lambda: calibrate.tau05_from_scores(5.0, 1),
                                        "scores: must be a sequence of numbers"),
    "rate_matching_threshold.scores.numpy-scalar": (
        lambda: calibrate.rate_matching_threshold(np.float64(5.0), 0.5),
        "scores: must be a sequence of numbers",
    ),
    "rate_matching_threshold.target_rate": (
        lambda: calibrate.rate_matching_threshold([1.0, 2.0], 0),
        "target_rate: must lie strictly in (0, 1), got 0.0",
    ),
    "rate_matching_threshold.target_rate.nan": (
        lambda: calibrate.rate_matching_threshold([1.0, 2.0], NAN),
        "target_rate: must lie strictly in (0, 1), got nan",
    ),
    "tail_probability_points.thresholds.bool": (lambda: calibrate.tail_probability_points(ONE, [True]),
                                                "thresholds[0]: must be a number, got True"),
    "tail_probability_points.thresholds.string": (lambda: calibrate.tail_probability_points(ONE, [1.0, "2"]),
                                                  "thresholds[1]: must be a number, got '2'"),
    "isotonic_fit.points.string": (lambda: calibrate.isotonic_fit([("1", 0.5, 1.0)]),
                                   "points[0]: must be a number, got '1'"),
    "isotonic_fit.points.bool": (lambda: calibrate.isotonic_fit([(1.0, 0.5, 1.0), (2.0, True, 1.0)]),
                                 "points[1]: must be a number, got True"),
    "isotonic_fit.points.pair": (lambda: calibrate.isotonic_fit([(1.0, 0.5)]),
                                 "points[0]: expected 3 entries, got 2"),
    "IsotonicCurve.knots.bool": (lambda: calibrate.IsotonicCurve(((True, 0.5, "1"),)),
                                 "knots[0]: must be a number, got True"),
    "IsotonicCurve.knots.string": (lambda: calibrate.IsotonicCurve(((1.0, 0.5, 1.0), (2.0, 0.5, "1"))),
                                   "knots[1]: must be a number, got '1'"),
    "IsotonicCurve.knots.ragged": (lambda: calibrate.IsotonicCurve(((1.0, 0.5, 1.0), (2.0, 0.5, 1.0, 1.0))),
                                   "knots[1]: expected 3 entries, got 4"),
    "tau_05.level": (lambda: calibrate.tau_05(CURVE, np.float64(1)),
                     "level: must lie strictly in (0, 1), got 1.0"),
    "tau_05.level.nan": (lambda: calibrate.tau_05(CURVE, NAN),
                         "level: must lie strictly in (0, 1), got nan"),
    # simulate
    "PopulationSettings.link_midpoint": (lambda: simulate.PopulationSettings(COHORT.spec, INF, 1.0),
                                         "link_midpoint: must be finite, got inf"),
    "PopulationSettings.link_slope": (lambda: simulate.PopulationSettings(COHORT.spec, 5.0, 0),
                                      "link_slope: must be finite and > 0, got 0.0"),
    "margin_experiment.threshold": (
        lambda: simulate.margin_experiment(COHORT, WEIGHTS, NAN, [0.0, 1.0]),
        "threshold: must be finite, got nan",
    ),
    "margin_bin_edges.count": (lambda: simulate.margin_bin_edges([0.5]), "bin_edges: need at least 2 edges, got 1"),
    "margin_bin_edges.scalar": (lambda: simulate.margin_bin_edges(0.5), "bin_edges: must be a sequence of numbers"),
    "margin_bin_edges.decreasing": (lambda: simulate.margin_bin_edges([1, 0.5]),
                                    "bin_edges: must be strictly increasing, got [1.0, 0.5]"),
    "margin_bin_edges.first": (lambda: simulate.margin_bin_edges([-1, 1]),
                               "bin_edges: margins are non-negative; first edge must be >= 0, got [-1.0, 1.0]"),
    "LatentDistribution.gaussian.sd": (lambda: simulate.LatentDistribution.gaussian(5.0, 0),
                                       "param_b: must be finite and > 0, got 0.0"),
    "LatentDistribution.gaussian.sd.-inf": (lambda: simulate.LatentDistribution.gaussian(5.0, -INF),
                                            "param_b: must be finite and > 0, got -inf"),
    "LatentDistribution.uniform.hi": (lambda: simulate.LatentDistribution.uniform(1.0, "9"),
                                      "param_b: must be finite, got '9'"),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_number_argument_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


# ---------------------------------------------------------------- integers

POOL = [CalibrationRecord(f"c{i}", float(i), i % 2 == 0, "accept") for i in range(6)]
PLAN = calibrate.allocate_quotas({(0, "accept"): 6}, 3, (0.0, 10.0), ("accept",))
POPULATION = simulate.synthetic_calibration_population(simulate.PopulationSettings(
    simulate.CohortSpec(n_papers=60, m_reviewers=1, latent=simulate.LatentDistribution.uniform(2.0, 9.0),
                        noise=NoiseProfile((1.0,), (1.0, 10.0)), seed=7),
    link_midpoint=5.5, link_slope=2.5,
))
COHORT_FIELDS = dict(n_papers=4, m_reviewers=1, latent=simulate.LatentDistribution.uniform(4.0, 7.0),
                     noise=NoiseProfile((1.0,), (1.0, 10.0)), seed=0)
COUNTS = dict(tp=1, fp=1, tn=1, fn=1)


def stored(name):
    return lambda result: getattr(result, name)


# One row per integer argument: a call of the value, the field its message
# names, the least and greatest values it takes (None: no greatest), a
# value it takes, and where the result keeps that value (None: nowhere).
INTEGERS = {
    # bounds
    "scalar_uniform_bound.m": (lambda v: bounds.scalar_uniform_bound(v, 1.0, 1.0, 1.0), "m", 1, None, 2, None),
    "dkw_bound.n_cal": (lambda v: bounds.dkw_bound(v, 0.05), "n_cal", 1, None, 10, None),
    # calibrate
    "CellQuota.bin_index": (lambda v: calibrate.CellQuota(v, "a", 5, 2), "bin_index", 0, None, 0,
                            stored("bin_index")),
    "CellQuota.population": (lambda v: calibrate.CellQuota(0, "a", v, 0), "population", 0, None, 0,
                             stored("population")),
    "CellQuota.quota": (lambda v: calibrate.CellQuota(0, "a", 5, v), "quota", 0, 5, 5, stored("quota")),
    "allocate_quotas.populations": (
        lambda v: calibrate.allocate_quotas({(0, "a"): v, (0, "b"): 2}, 1, (0.0, 1.0), ("a", "b")),
        "populations[(0, 'a')]", 0, None, 0, lambda plan: plan.cells[0].population,
    ),
    "allocate_quotas.n_cal": (lambda v: calibrate.allocate_quotas({(0, "a"): 3}, v, (0.0, 1.0), ("a",)),
                              "n_cal", 1, 3, 3, lambda plan: plan.cells[0].quota),
    "stratified_sample.seed": (lambda v: calibrate.stratified_sample(POOL, PLAN, v), "seed", 0, None, 0, None),
    "stratify.seed": (lambda v: calibrate.stratify(POOL, 3, (0.0, 10.0), ("accept",), v), "seed", 0, None, 0,
                      None),
    # core
    "RubricSchema.criteria_count": (lambda v: RubricSchema(v, ((0, 1),)), "criteria_count", 1, None, 1,
                                    stored("criteria_count")),
    "DecisionThresholds.calibration_size": (
        lambda v: DecisionThresholds(1.0, 1.0, 0.5, v), "calibration_size", 1, None, 5, stored("calibration_size"),
    ),
    **{f"ConfusionCounts.{name}": (lambda v, name=name: ConfusionCounts(**{**COUNTS, name: v}), name, 0, None, 0,
                                   stored(name)) for name in COUNTS},
    "ReviewerWeights.uniform.count": (ReviewerWeights.uniform, "count", 1, None, 2, None),
    "ScoringFunctional.mean.criteria_count": (ScoringFunctional.mean, "criteria_count", 1, None, 2, None),
    # simulate
    **{f"CohortSpec.{name}": (lambda v, name=name: simulate.CohortSpec(**{**COHORT_FIELDS, name: v}), name,
                              least, None, least, stored(name))
       for name, least in (("n_papers", 1), ("m_reviewers", 1), ("seed", 0))},
    "slice_cohort.m": (lambda v: simulate.slice_cohort(COHORT, v), "m", 1, 2, 1,
                       lambda cohort: cohort.spec.m_reviewers),
    "threshold_bootstrap.replicates": (lambda v: simulate.threshold_bootstrap(POPULATION, (10, 20), v, 3),
                                       "replicates", 2, None, 2, None),
    "threshold_bootstrap.seed": (lambda v: simulate.threshold_bootstrap(POPULATION, (10, 20), 2, v),
                                 "seed", 0, None, 0, None),
}


def refusals():
    for name, (call, field, least, most, _, _) in INTEGERS.items():
        bound = f" >= {least}" if most is None else f" in [{least}, {most}]"
        for label, value in (("bool", True), ("float", 2.5), ("below", least - 1)):
            yield pytest.param(call, value, f"{field}: must be an integer{bound}, got {value!r}",
                               id=f"{name}.{label}")
        if most is not None:
            yield pytest.param(call, most + 1, f"{field}: must be an integer{bound}, got {most + 1}",
                               id=f"{name}.above")


@pytest.mark.parametrize("call, value, message", refusals())
def test_integer_argument_refuses(call, value, message):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("call, _field, _least, _most, value, kept", INTEGERS.values(), ids=INTEGERS.keys())
def test_integer_argument_takes_a_numpy_integer_as_an_int(call, _field, _least, _most, value, kept):
    result = call(np.int64(value))
    assert repr(result) == repr(call(value))  # a cohort holds arrays, which compare elementwise
    if kept is not None:
        assert type(kept(result)) is int and kept(result) == value


# The arguments whose rule keeps its own words at one edge: an index below
# its count, and the grids, whose message names the whole grid; then the
# one statement that an error curve needs 2 calibration sizes.
INTEGER_WORDS = {
    "RubricSchema.overall_index.bool": (lambda: RubricSchema(2, ((0, 1),) * 2, True),
                                        "overall_index: must be an integer, got True"),
    "RubricSchema.overall_index.float": (lambda: RubricSchema(2, ((0, 1),) * 2, 1.0),
                                         "overall_index: must be an integer, got 1.0"),
    "RubricSchema.overall_index.below": (lambda: RubricSchema(2, ((0, 1),) * 2, -1),
                                         "overall_index: must lie in [0, 2), got -1"),
    "RubricSchema.overall_index.above": (lambda: RubricSchema(2, ((0, 1),) * 2, np.int64(2)),
                                         "overall_index: must lie in [0, 2), got 2"),
    **{f"panel_sizes.{label}": (lambda grid=grid: simulate.panel_sizes(grid),
                                f"m_grid: panel sizes must be integers >= 1, got {grid}")
       for label, grid in (("bool", [2, True]), ("float", [2.5]), ("below", [0, 3]), ("empty", []))},
    **{f"calibration_sizes.{label}": (
        lambda grid=grid: simulate.calibration_sizes(grid, 10),
        f"n_cal_grid: calibration sizes must be strictly increasing integers in [2, 10], got {grid}",
    ) for label, grid in (("bool", [True, 5]), ("float", [2.5]), ("below", [1, 5]), ("above", [5, 11]),
                          ("unsorted", [5, 3]), ("empty", []))},
    "error_curve_sizes": (lambda: simulate.error_curve_sizes(simulate.calibration_sizes([np.int64(5)], 10)),
                          "n_cal_grid: the error curve needs at least 2 calibration sizes, got [5]"),
    "error_curve_slope": (lambda: simulate.error_curve_slope([simulate.ThresholdErrorRow(5, 0.1, 0.0, 0)]),
                          "rows: the error curve needs at least 2 calibration sizes, got [5]"),
}


@pytest.mark.parametrize("call, message", INTEGER_WORDS.values(), ids=INTEGER_WORDS.keys())
def test_integer_argument_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_numpy_integers_are_kept_as_ints():
    thresholds = DecisionThresholds(1.0, 1.0, 0.5, calibration_size=np.int64(5))
    assert json.dumps(asdict(thresholds)) == (
        '{"tau_rate": 1.0, "tau_05": 1.0, "target_rate": 0.5, "calibration_size": 5}'
    )
    assert type(RubricSchema(2, ((0, 1),) * 2, np.int64(1)).overall_index) is int
    sizes = simulate.panel_sizes([np.int64(3), np.int64(1)]) + simulate.calibration_sizes([np.int64(2)], 10)
    assert sizes == [1, 3, 2] and {type(n) for n in sizes} == {int}


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@given(JSON, st.none() | st.integers(-2, 3))
def test_config_integer_leaf_is_the_rule(value, least):
    """For any JSON value, a config key and a library field take and word it alike."""
    leaf = outcome(lambda: config.parse(config.integer(least), value, "a.key"))
    rule = outcome(lambda: rules.integer("a.key", value, least))
    assert leaf == rule
    assert type(leaf) in (int, str)


# ---------------------------------------------------------------- one conversion

FLOAT_RULES = {"number": rules.number, "finite": rules.finite, "not_nan": rules.not_nan,
               "positive": rules.positive, "non_negative": rules.non_negative, "open_unit": rules.open_unit}
# each config number leaf and the rule it is
CONFIG_LEAVES = {config.number: rules.number, config.finite: rules.finite, config.positive: rules.positive,
                 config.non_negative: rules.non_negative, config.probability: rules.open_unit}
HUGE = st.integers(2**1024, 10**400)
ODD_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    HUGE,
    HUGE.map(lambda n: -n),
    st.sampled_from([NAN, INF, -INF]),
    st.floats(),
    st.integers(),
    st.sampled_from([np.float64(NAN), np.float64(-INF), np.float32(0.5), np.int64(-3), np.uint8(7),
                     np.bool_(True), np.bool_(False), np.float16(INF)]),
    st.none(),
    st.lists(st.floats(), max_size=2),
)


@given(ODD_NUMBERS)
def test_float_rules_raise_only_value_error(value):
    """Each float rule returns a float or raises a ValueError; a config leaf words the rule's message."""
    for name, rule in FLOAT_RULES.items():
        got = outcome(lambda: rule("a.key", value))
        assert type(got) in (float, str), name
        if isinstance(value, (bool, np.bool_, str)):
            assert got == f"a.key: must {rule.requirement}, got {value!r}"
    for leaf, rule in CONFIG_LEAVES.items():
        assert repr(outcome(lambda: leaf(value))) == repr(outcome(lambda: rule("", value)))
        assert repr(outcome(lambda: config.parse(leaf, value, "a.key"))) == repr(outcome(lambda: rule("a.key", value)))
    assert type(outcome(lambda: rules.increasing_edges("edges", [0.0, value]))) in (tuple, str)


def test_a_huge_integer_is_an_infinity():
    assert rules.number("x", 10**400) == INF and rules.number("x", -(10**400)) == -INF
    assert rules.json_number(np.int64(3)) == 3.0 and type(rules.json_number(np.float32(0.5))) is float
    assert rules.json_number(np.bool_(True)) is None and rules.json_number(np.array([1.0])) is None


# numbers is number.each as an array: plain floats (NaN, infinities, -0.0), ints to 2**1100, bools, numpy
# scalars, strings and None, in lists, tuples and arrays of numpy's integer, float, bool and object dtypes
ENTRIES = st.one_of(
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.booleans(),
    st.sampled_from([-0.0, np.float64(NAN), np.float32(-0.0), np.int64(-3), np.uint64(2**64 - 1),
                     np.bool_(True), np.float16(INF)]),
    st.text(max_size=2),
    st.none(),
)
ARRAYS = st.sampled_from([np.float64, np.float32, np.float16, np.int64, np.int8, np.uint64, np.bool_, object])


@given(st.lists(ENTRIES, max_size=6), st.sampled_from([list, tuple, "array"]), ARRAYS)
def test_numbers_is_number_each_as_an_array(values, kind, dtype):
    if kind == "array":
        try:
            with np.errstate(all="ignore"):  # a float past float16's range is cast to an infinity
                values = np.array(values, dtype=dtype)
        except (ValueError, TypeError, OverflowError):  # an entry that dtype cannot hold
            values = np.array(values, dtype=object)
    else:
        values = kind(values)
    got = outcome(lambda: rules.numbers("xs", values))
    want = outcome(lambda: np.array(rules.number.each("xs", values)))
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.float64 and got.shape == want.shape == (len(values),)
        np.testing.assert_array_equal(got, want)  # NaN equals NaN here
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_numbers_takes_a_numeric_array_without_a_pass():
    scores = np.array([1.0, -0.0, NAN])
    assert rules.numbers("xs", scores) is scores
    assert rules.numbers("xs", np.arange(3)).dtype == np.float64
    assert rules.numbers("xs", [1, 2**1100, -(2**1100)]).tolist() == [1.0, INF, -INF]
    assert outcome(lambda: rules.numbers("xs", np.ones((2, 2)))) == "xs[0]: must be a number, got array([1., 1.])"


@pytest.mark.parametrize("value", [5.0, 2, None, np.float64(5.0), np.int64(2), np.array(5.0), np.array([5.0])[0]],
                         ids=["float", "int", "none", "np-float", "np-int", "0-d", "element"])
def test_a_bare_number_is_not_a_sequence(value):
    message = "xs: must be a sequence of numbers"
    assert outcome(lambda: rules.numbers("xs", value)) == message
    assert outcome(lambda: rules.finite.each("xs", value)) == message
    assert outcome(lambda: rules.increasing_edges("xs", value)) == message


# the one string rule, rules.text: each field's message, word for word
TEXTS = {
    "ReviewRecord.reviewer_id": (lambda v: ReviewRecord(v, RubricVector((5.0,))), "reviewer_id"),
    "ReviewPanel.submission_id": (lambda v: ReviewPanel(v, PANEL.reviews), "submission_id"),
    "CalibrationRecord.submission_id": (lambda v: CalibrationRecord(v, 1.0, True, "accept"), "submission_id"),
    "CalibrationRecord.status": (lambda v: CalibrationRecord("c1", 1.0, True, v), "status"),
    "CellQuota.status": (lambda v: calibrate.CellQuota(0, v, 1, 1), "status"),
}


@pytest.mark.parametrize("value", ["", None, 5, b"id"], ids=["empty", "none", "int", "bytes"])
@pytest.mark.parametrize("call, field", TEXTS.values(), ids=TEXTS.keys())
def test_text_rule_message(call, field, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{field}: must be a non-empty string"


# ---------------------------------------------------------------- the sequence rule

MAY_BE_EMPTY, NON_EMPTY, OWN = "may be empty", "non-empty", "own words"
# One row per sequence argument: a call of the value, the field its message names, and its shape: it may be
# empty, must be non-empty (``field: must be non-empty``), words its own count rule (``bin_edges: need at
# least 2 edges``), or must hold exactly N entries; then, for N, a value one entry too long.
SEQUENCES = {
    # aggregate
    "ConsensusRubric.values": (aggregate.ConsensusRubric, "values", NON_EMPTY),
    "gls_weights.projected_variances": (aggregate.gls_weights, "projected_variances", NON_EMPTY),
    "panel_variance.projected_variances": (lambda v: aggregate.panel_variance(WEIGHTS, v), "projected_variances", 2),
    # bayes
    "posterior_update.reviews": (lambda v: bayes.posterior_update(PRIOR, v), "reviews", MAY_BE_EMPTY),
    "posterior_update.reviews[0]": (lambda v: bayes.posterior_update(PRIOR, [v]), "reviews[0]", 2),
    # bounds
    "rubric_bound_inputs.lambda_max": (lambda v: bounds.rubric_bound_inputs(WEIGHTS, SCHEMA, LINEAR, v),
                                       "lambda_max", 2),
    # calibrate
    "empirical_acceptance.scores": (lambda v: calibrate.empirical_acceptance(v, 1.0), "scores", NON_EMPTY),
    "rate_matching_threshold.scores": (lambda v: calibrate.rate_matching_threshold(v, 0.5), "scores", NON_EMPTY),
    "tau05_from_scores.scores": (lambda v: calibrate.tau05_from_scores(v, [1, 0]), "scores", NON_EMPTY),
    "tau05_from_scores.accepts": (lambda v: calibrate.tau05_from_scores([1.0, 2.0], v), "accepts", 2),
    "tail_probability_points.records": (lambda v: calibrate.tail_probability_points(v, [1.0]), "records", NON_EMPTY),
    "tail_probability_points.thresholds": (lambda v: calibrate.tail_probability_points(ONE, v), "thresholds",
                                           NON_EMPTY),
    "fit_tau05.records": (calibrate.fit_tau05, "records", NON_EMPTY),
    "isotonic_fit.points": (calibrate.isotonic_fit, "points", NON_EMPTY),
    "isotonic_fit.points[0]": (lambda v: calibrate.isotonic_fit([v]), "points[0]", 3),
    "IsotonicCurve.knots": (calibrate.IsotonicCurve, "knots", NON_EMPTY),
    "IsotonicCurve.knots[0]": (lambda v: calibrate.IsotonicCurve((v,)), "knots[0]", 3),
    "cell_populations.records": (lambda v: calibrate.cell_populations(v, (0.0, 10.0), ("accept",)), "records",
                                 MAY_BE_EMPTY),
    "stratified_sample.pool": (lambda v: calibrate.stratified_sample(v, PLAN, 0), "pool", MAY_BE_EMPTY),
    "stratify.pool": (lambda v: calibrate.stratify(v, 1, (0.0, 10.0), ("accept",), 0), "pool", MAY_BE_EMPTY),
    "StratificationPlan.bin_edges": (plan, "bin_edges", OWN),
    "StratificationPlan.status_vocabulary": (lambda v: plan((0, 1), v), "status_vocabulary", NON_EMPTY),
    "StratificationPlan.cells": (lambda v: calibrate.StratificationPlan((0, 1), ("accept",), v), "cells", OWN),
    "vocabulary": (strata.vocabulary, "status_vocabulary", NON_EMPTY),
    # core
    "RubricSchema.bounds": (lambda v: RubricSchema(2, v), "bounds", 2, [(0, 1)] * 3),
    "RubricSchema.bounds[0]": (lambda v: RubricSchema(1, (v,)), "bounds[0]", 2),
    "ScoringFunctional.coefficients": (lambda v: ScoringFunctional("linear", v), "coefficients", NON_EMPTY),
    "ScoringFunctional.linear": (ScoringFunctional.linear, "coefficients", NON_EMPTY),
    "ReviewerWeights.weights": (ReviewerWeights, "weights", NON_EMPTY),
    "NoiseProfile.per_reviewer_variance": (lambda v: NoiseProfile(v, (1.0, 10.0)), "per_reviewer_variance",
                                           NON_EMPTY),
    "NoiseProfile.scalar_bounds": (lambda v: NoiseProfile((1.0,), v), "scalar_bounds", OWN),
    # objects
    "RubricVector.values": (RubricVector, "values", NON_EMPTY),
    "ReviewPanel.reviews": (lambda v: ReviewPanel("p1", v), "reviews", NON_EMPTY),
    # metrics
    "acpt": (metrics.acpt, "decisions", NON_EMPTY),
    "icr_any": (metrics.icr_any, "panels", NON_EMPTY),
    "icr_per_model": (lambda v: metrics.icr_per_model(v, "m1"), "panels", NON_EMPTY),
    "conflict_rate": (lambda v: metrics.conflict_rate(v, {}, 5.0), "panels", NON_EMPTY),
    "detector_counts": (metrics.detector_counts, "panels", NON_EMPTY),
    # simulate
    "threshold_bootstrap.population": (lambda v: simulate.threshold_bootstrap(v, (2, 3), 2, 0), "population",
                                       NON_EMPTY),
    "calibration_sizes": (lambda v: simulate.calibration_sizes(v, 10), "n_cal_grid", OWN),
    "error_curve_sizes": (simulate.error_curve_sizes, "n_cal_grid", OWN),
    "panel_sizes": (simulate.panel_sizes, "m_grid", OWN),
    "margin_bin_edges": (simulate.margin_bin_edges, "bin_edges", OWN),
    "error_curve_slope": (simulate.error_curve_slope, "rows", OWN),
    "check_threshold_rows": (simulate.check_threshold_rows, "rows", OWN),
    "check_margin_dominance": (simulate.check_margin_dominance, "rows", MAY_BE_EMPTY),
    "check_margin_ordering": (simulate.check_margin_ordering, "rows", MAY_BE_EMPTY),
    "check_variance_rows": (simulate.check_variance_rows, "rows", MAY_BE_EMPTY),
    # rules
    "numbers": (lambda v: rules.numbers("xs", v), "xs", MAY_BE_EMPTY),
    "finite.each": (lambda v: rules.finite.each("xs", v), "xs", MAY_BE_EMPTY),
    "increasing_edges": (lambda v: rules.increasing_edges("xs", v), "xs", OWN),
}


def refused(call, value):
    """The message of the ``ValueError`` that ``call(value)`` raises: never a ``TypeError`` nor an unpacking error."""
    with pytest.raises(Exception) as info:
        call(value)
    assert type(info.value) is ValueError, repr(info.value)
    message = str(info.value)
    assert "unpack" not in message
    return message


def sequence_refusals():
    for name, (call, field, shape, *longer) in SEQUENCES.items():
        for label, value in (("number", 5.0), ("numpy-number", np.float64(5.0)), ("str", "ab"), ("bytes", b"ab"),
                             ("0-d", np.array(5.0))):
            yield pytest.param(call, value, f"{field}: must be a sequence of ", id=f"{name}.{label}")
        if shape == NON_EMPTY:
            yield pytest.param(call, [], f"{field}: must be non-empty", id=f"{name}.empty")
        elif shape == OWN:
            yield pytest.param(call, [], f"{field}: ", id=f"{name}.empty")
        elif shape != MAY_BE_EMPTY:
            yield pytest.param(call, [], f"{field}: expected {shape} entries, got 0", id=f"{name}.empty")
            value = longer[0] if longer else [1.0] * (shape + 1)
            yield pytest.param(call, value, f"{field}: expected {shape} entries, got {shape + 1}", id=f"{name}.long")


@pytest.mark.parametrize("call, value, message", sequence_refusals())
def test_sequence_argument_refuses(call, value, message):
    """A bare value, a string, a 0-d array, an empty sequence and a wrong length each end in the field's ValueError;
    a message that ends in ``: `` is a prefix of the field's own words, any other is the whole message or its
    ``must be a sequence of <entries>`` start."""
    got = refused(call, value)
    assert got.startswith(message) if message.endswith(" ") else got == message


# word for word: bare values, a string vocabulary, review pairs of the wrong size and rate-adapter entries of
# another type (by their index, never an AttributeError), and the length checks of an argument that is no
# sequence itself (``ReviewerWeights`` against a reviewer count)
SEQUENCE_WORDS = {
    "posterior_update.number": (lambda: bayes.posterior_update(PRIOR, 7.0),
                                "reviews: must be a sequence of (score, variance) pairs"),
    "posterior_update.bare-review": (lambda: bayes.posterior_update(PRIOR, [7.0]),
                                     "reviews[0]: must be a sequence of numbers"),
    "posterior_update.one": (lambda: bayes.posterior_update(PRIOR, [(7.0,)]), "reviews[0]: expected 2 entries, got 1"),
    "posterior_update.three": (lambda: bayes.posterior_update(PRIOR, [(7.0, 1.0, 2.0)]),
                               "reviews[0]: expected 2 entries, got 3"),
    "acpt": (lambda: metrics.acpt(5), "decisions: must be a sequence of decisions"),
    "icr_any": (lambda: metrics.icr_any(5), "panels: must be a sequence of panels"),
    "acpt.entry": (lambda: metrics.acpt([5]), "decisions[0]: must be a Decision, got int"),
    "acpt.panel": (lambda: metrics.acpt([aggregate.decide(7.0, 7.0), PANEL]),
                   "decisions[1]: must be a Decision, got ReviewPanel"),
    "icr_any.entry": (lambda: metrics.icr_any([5]), "panels[0]: must be a ReviewPanel, got int"),
    "icr_per_model.decision": (lambda: metrics.icr_per_model([PANEL, aggregate.decide(7.0, 7.0)], "m1"),
                               "panels[1]: must be a ReviewPanel, got Decision"),
    "conflict_rate.entry": (lambda: metrics.conflict_rate([5.0], {}, NAN), "panels[0]: must be a ReviewPanel, got float"),
    "detector_counts.entry": (lambda: metrics.detector_counts([PANEL, None]),
                              "panels[1]: must be a ReviewPanel, got NoneType"),
    "isotonic_fit": (lambda: calibrate.isotonic_fit(5), "points: must be a sequence of (threshold, value, weight) triples"),
    "panel_sizes": (lambda: simulate.panel_sizes(5), "m_grid: must be a sequence of integers"),
    "error_curve_slope": (lambda: simulate.error_curve_slope(5), "rows: must be a sequence of threshold-error rows"),
    "check_threshold_rows": (lambda: simulate.check_threshold_rows(5),
                             "rows: must be a sequence of threshold-error rows"),
    "check_margin_dominance": (lambda: simulate.check_margin_dominance(5), "rows: must be a sequence of margin bin rows"),
    "check_margin_ordering": (lambda: simulate.check_margin_ordering(5), "rows: must be a sequence of margin bin rows"),
    "check_variance_rows": (lambda: simulate.check_variance_rows(5), "rows: must be a sequence of variance rows"),
    "RubricSchema": (lambda: RubricSchema(1, 5.0), "bounds: must be a sequence of [lo, hi] pairs"),
    "RubricSchema.count": (lambda: RubricSchema(2, ((1, 10),)), "bounds: expected 2 entries, got 1"),
    "ScoringFunctional.linear": (lambda: ScoringFunctional.linear(5.0), "coefficients: must be a sequence of numbers"),
    "vocabulary": (lambda: strata.vocabulary("ab"), "status_vocabulary: must be a sequence of strings"),
    "scalar_bound_inputs.weights": (
        lambda: bounds.scalar_bound_inputs(ReviewerWeights.uniform(3), NoiseProfile((1.0, 1.0), (1.0, 10.0))),
        "weights: expected 2 entries, got 3",
    ),
    "margin_experiment.weights": (lambda: simulate.margin_experiment(COHORT, ReviewerWeights.uniform(3), 5.0, [0, 1]),
                                  "weights: expected 2 entries, got 3"),
}


@pytest.mark.parametrize("call, message", SEQUENCE_WORDS.values(), ids=SEQUENCE_WORDS.keys())
def test_sequence_argument_message(call, message):
    assert refused(lambda _: call(), None) == message


def test_sequence_rule_takes_a_sequence_as_it_is():
    values = [1.0, 2.0]
    assert rules.sequence("xs", values, "numbers", 2, non_empty=True) is values
    assert rules.sequence("xs", (v for v in values), "numbers") == (1.0, 2.0)  # an iterator, taken once
    assert rules.sequence("xs", {3.0}, "numbers") == (3.0,)
    array = np.arange(3.0)
    assert rules.sequence("xs", array, "numbers", non_empty=True) is array
    assert rules.numbers("xs", array, non_empty=True) is array
