import dataclasses
import json
import math

import pytest

from panelcal import config
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


def make_panel(flags=(False, True)):
    reviews = tuple(
        ReviewRecord(
            reviewer_id=f"r{i}",
            rubric=RubricVector((5.0 + i, 6.0)),
            integrity_flag=flag,
            feedback="ok",
        )
        for i, flag in enumerate(flags)
    )
    return ReviewPanel(submission_id="p1", reviews=reviews, fabrication_label=True)


def test_rubric_schema_uniform():
    schema = RubricSchema.uniform(3, 1.0, 10.0, overall_index=2)
    assert schema.criteria_count == 3
    assert schema.bounds == ((1.0, 10.0),) * 3
    assert schema.widths == (9.0, 9.0, 9.0)


def test_rubric_schema_rejects_bad_bounds():
    with pytest.raises(ValueError, match=r"bounds\[1\]"):
        RubricSchema(2, ((1.0, 10.0), (5.0, 5.0)))
    with pytest.raises(ValueError, match="criteria_count"):
        RubricSchema(0, ())
    with pytest.raises(ValueError, match="overall_index"):
        RubricSchema(2, ((1.0, 10.0), (1.0, 10.0)), overall_index=2)
    with pytest.raises(ValueError, match="bounds"):
        RubricSchema(2, ((1.0, 10.0),))


def test_rubric_vector_validation():
    vec = RubricVector((4, 7.5))
    assert vec.values == (4.0, 7.5)
    assert len(vec) == 2
    with pytest.raises(ValueError, match=r"values\[1\]"):
        RubricVector((4.0, math.nan))
    with pytest.raises(ValueError, match="values"):
        RubricVector(())


def test_rubric_vector_schema_check():
    schema = RubricSchema.uniform(2, 1.0, 10.0)
    RubricVector((1.0, 10.0)).check_schema(schema)
    with pytest.raises(ValueError, match=r"values\[0\]"):
        RubricVector((0.5, 5.0)).check_schema(schema)
    with pytest.raises(ValueError, match="expected 2 criteria"):
        RubricVector((5.0,)).check_schema(schema)


def test_review_record_types():
    with pytest.raises(ValueError, match="reviewer_id"):
        ReviewRecord("", RubricVector((5.0,)))
    with pytest.raises(ValueError, match="integrity_flag"):
        ReviewRecord("r1", RubricVector((5.0,)), integrity_flag=1)  # type: ignore[arg-type]


def test_panel_invariants():
    panel = make_panel()
    assert panel.reviewer_ids == ("r0", "r1")
    assert panel.criteria_count == 2
    assert panel.any_flag
    assert panel.review_by("r1").integrity_flag
    with pytest.raises(ValueError, match="no review by"):
        panel.review_by("r9")
    with pytest.raises(ValueError, match="at least one review"):
        ReviewPanel("p1", ())
    dup = panel.reviews[0]
    with pytest.raises(ValueError, match="duplicate reviewer_id"):
        ReviewPanel("p1", (dup, dup))
    short = ReviewRecord("r9", RubricVector((5.0,)))
    with pytest.raises(ValueError, match="rubric length mismatch"):
        ReviewPanel("p1", (panel.reviews[0], short))


def test_panel_schema_validation_names_panel_and_reviewer():
    panel = make_panel()
    schema = RubricSchema.uniform(2, 1.0, 5.0)
    with pytest.raises(ValueError, match="panel 'p1', reviewer 'r0'"):
        panel.validate_schema(schema)


def test_weights_normalization():
    w = ReviewerWeights((0.25, 0.25, 0.5))
    assert math.isclose(sum(w.weights), 1.0, abs_tol=1e-15)
    nudged = ReviewerWeights((0.25, 0.25, 0.5 + 5e-10))
    assert math.isclose(sum(nudged.weights), 1.0, abs_tol=1e-15)
    assert len(ReviewerWeights.uniform(4)) == 4
    with pytest.raises(ValueError, match="weights"):
        ReviewerWeights((0.5, 0.6))
    with pytest.raises(ValueError, match=r"weights\[0\]"):
        ReviewerWeights((-0.1, 1.1))


def test_scoring_functional():
    lin = ScoringFunctional.linear((0.6, 0.8))
    assert lin.lipschitz_constant == pytest.approx(1.0)
    pick = ScoringFunctional.overall_pick()
    assert pick.lipschitz_constant == 1.0
    mean = ScoringFunctional.mean(4)
    assert mean.coefficients == (0.25,) * 4
    with pytest.raises(ValueError, match="coefficients"):
        ScoringFunctional.linear((0.0, 0.0))
    with pytest.raises(ValueError, match="coefficients"):
        ScoringFunctional("overall_pick", (1.0,))
    with pytest.raises(ValueError, match="kind"):
        ScoringFunctional("softmax", (1.0,))


def test_noise_profile():
    noise = NoiseProfile((1.0, 0.5), (1.0, 10.0))
    assert noise.reviewer_count == 2
    assert noise.range_width == 9.0
    with pytest.raises(ValueError, match=r"per_reviewer_variance\[1\]"):
        NoiseProfile((1.0, -0.5), (1.0, 10.0))
    with pytest.raises(ValueError, match="scalar_bounds"):
        NoiseProfile((1.0,), (10.0, 1.0))


def test_bound_inputs():
    inputs = BoundInputs(0.25, 0.5, (1.0, 2.0))
    assert inputs.projected_variances == (1.0, 2.0)
    with pytest.raises(ValueError, match="sigma_w_sq"):
        BoundInputs(-0.1, 0.5)
    with pytest.raises(ValueError, match="c_max"):
        BoundInputs(0.1, math.inf)


def test_calibration_record():
    rec = CalibrationRecord("c1", 6.5, True, "accept")
    assert rec.agent_score == 6.5
    with pytest.raises(ValueError, match="agent_score"):
        CalibrationRecord("c1", math.inf, True, "accept")
    with pytest.raises(ValueError, match="human_accept"):
        CalibrationRecord("c1", 6.5, 1, "accept")  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="status"):
        CalibrationRecord("c1", 6.5, True, "")


def test_decision_thresholds():
    t = DecisionThresholds(tau_rate=math.inf, tau_05=6.0, target_rate=0.3, calibration_size=10)
    assert math.isinf(t.tau_rate)
    with pytest.raises(ValueError, match="tau_rate"):
        DecisionThresholds(math.nan, 6.0, 0.3, 10)
    with pytest.raises(ValueError, match="target_rate"):
        DecisionThresholds(7.0, 6.0, 1.0, 10)
    with pytest.raises(ValueError, match="calibration_size"):
        DecisionThresholds(7.0, 6.0, 0.3, 0)


def test_gaussian_posterior():
    post = GaussianPosterior(5.0, 4.0)
    assert post.std == 2.0
    with pytest.raises(ValueError, match="variance"):
        GaussianPosterior(5.0, 0.0)


def test_confusion_counts():
    counts = ConfusionCounts(1, 2, 3, 4)
    assert counts.total == 10
    with pytest.raises(ValueError, match="fn"):
        ConfusionCounts(1, 2, 3, -1)
    with pytest.raises(ValueError, match="counts must sum"):
        ConfusionCounts(0, 0, 0, 0)


@pytest.mark.parametrize(
    "value",
    [
        RubricSchema.uniform(2, 1.0, 10.0, overall_index=1),
        ScoringFunctional.linear((0.5, 0.5)),
        ScoringFunctional.overall_pick(),
        NoiseProfile((1.0, 2.0), (1.0, 10.0)),
        DecisionThresholds(7.0, 6.0, 0.3173, 200),
    ],
)
def test_dict_round_trip(value):
    # the config spec reads a config-parsed type's own fields back from JSON
    node = {
        RubricSchema: config.SCHEMA,
        ScoringFunctional: config.FUNCTIONAL,
        NoiseProfile: config.NOISE,
        DecisionThresholds: config.THRESHOLDS,
    }[type(value)]
    data = json.loads(json.dumps(dataclasses.asdict(value)))
    assert config.parse(node, data) == value

