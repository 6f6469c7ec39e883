import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from panelcal.aggregate import decide
from panelcal.core import ConfusionCounts, ReviewPanel, ReviewRecord, RubricVector
from panelcal.metrics import (
    DetectorMetrics,
    acpt,
    aligned_table,
    conflict_rate,
    csv_text,
    detector_counts,
    detector_metrics,
    format_percent,
    icr_any,
    icr_per_model,
    rate_with_counts,
)


def make_panel(pid, flags, label=None):
    reviews = tuple(
        ReviewRecord(f"m{i + 1}", RubricVector((5.0,)), integrity_flag=f)
        for i, f in enumerate(flags)
    )
    return ReviewPanel(pid, reviews, fabrication_label=label)


def test_acpt():
    decisions = [decide(s, 7.0) for s in (7.0, 6.0, 8.0)]
    assert acpt(decisions) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="decisions"):
        acpt([])


def test_icr_per_model_and_any():
    panels = [
        make_panel("p1", (True, False, False)),
        make_panel("p2", (False, False, False)),
        make_panel("p3", (True, False, True)),
    ]
    assert icr_per_model(panels, "m1") == pytest.approx(2 / 3)
    assert icr_per_model(panels, "m2") == 0.0
    assert icr_per_model(panels, "m3") == pytest.approx(1 / 3)
    assert icr_any(panels) == pytest.approx(2 / 3)
    with pytest.raises(ValueError, match="no review by"):
        icr_per_model(panels, "m9")


def test_conflict_rate():
    panels = [
        make_panel("p1", (True, False)),
        make_panel("p2", (False, False)),
        make_panel("p3", (True, True)),
    ]
    scores = {"p1": 8.0, "p2": 9.0, "p3": 5.0}
    # flagged panels are p1 and p3; only p1 clears the threshold
    assert conflict_rate(panels, scores, 7.0) == 0.5
    assert conflict_rate(panels, scores, 7.0, reviewer_id="m2") == 0.0
    clean = [make_panel("p1", (False, False))]
    assert conflict_rate(clean, {"p1": 8.0}, 7.0) is None
    with pytest.raises(ValueError, match="missing entry"):
        conflict_rate(panels, {"p1": 8.0}, 7.0)


def test_detector_counts():
    panels = [
        make_panel("p1", (True, False), label=True),
        make_panel("p2", (False, False), label=True),
        make_panel("p3", (True, False), label=False),
        make_panel("p4", (False, False), label=False),
    ]
    any_counts = detector_counts(panels)
    assert (any_counts.tp, any_counts.fp, any_counts.tn, any_counts.fn) == (1, 1, 1, 1)
    m2 = detector_counts(panels, reviewer_id="m2")
    assert (m2.tp, m2.fp, m2.tn, m2.fn) == (0, 0, 2, 2)
    unlabeled = [make_panel("p9", (True, False))]
    with pytest.raises(ValueError, match="no fabrication_label"):
        detector_counts(unlabeled)


def test_detector_metrics_reference_row():
    # recall-oriented detector with a high false-positive rate
    metrics = detector_metrics(ConfusionCounts(tp=49, fp=42, tn=8, fn=1))
    assert format_percent(metrics.tpr) == "98.0%"
    assert format_percent(metrics.fpr) == "84.0%"
    assert format_percent(metrics.accuracy) == "57.0%"
    assert format_percent(metrics.f1) == "69.5%"


def test_detector_metrics_degenerate_cases():
    no_positives = detector_metrics(ConfusionCounts(tp=0, fp=2, tn=8, fn=0))
    assert no_positives.tpr is None
    assert no_positives.fpr == 0.2
    assert no_positives.f1 == 0.0
    no_negatives = detector_metrics(ConfusionCounts(tp=3, fp=0, tn=0, fn=1))
    assert no_negatives.fpr is None
    all_negative_predictor = detector_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
    assert all_negative_predictor.f1 == 0.0
    assert all_negative_predictor.tpr == 0.0
    assert all_negative_predictor.accuracy == 0.5


def test_detector_metrics_validation():
    with pytest.raises(ValueError, match="tpr"):
        DetectorMetrics(tpr=1.5, fpr=0.0, accuracy=0.5, f1=0.5)
    with pytest.raises(ValueError, match="accuracy"):
        DetectorMetrics(tpr=None, fpr=0.0, accuracy=1.5, f1=0.5)


def test_format_percent():
    assert format_percent(0.6667) == "66.7%"
    assert format_percent(None) == "-"
    assert format_percent(1.0) == "100.0%"


def test_rate_with_counts():
    assert rate_with_counts(2, 3) == "66.7% (2/3)"
    assert rate_with_counts(0, 0) == "- (0/0)"


def test_aligned_table():
    text = aligned_table(["name", "rate"], [["m1", "66.7%"], ["any", "100.0%"]])
    lines = text.splitlines()
    assert lines[0] == "name    rate"
    assert lines[1] == "----  ------"
    assert lines[2] == "m1     66.7%"
    assert lines[3] == "any   100.0%"
    assert text.endswith("\n")


CELLS = st.one_of(
    st.text(alphabet=st.sampled_from("ab -%.\u00e9\u4e00"), max_size=3),
    st.text(alphabet="xy", min_size=30, max_size=60),  # wider than any header
    st.integers(-5, 500),
)


@example(headers=[], rows=[])
@example(headers=[], rows=[[], []])
@example(headers=["id"], rows=[])
@example(headers=["a", "b"], rows=[["x" * 80], ["y", "", "z"], []])
@given(st.lists(CELLS, max_size=4), st.lists(st.lists(CELLS, max_size=5), max_size=6))
def test_aligned_table_matches_row_by_row_layout(headers, rows):
    # ragged rows, no rows, wide cells, and cells that are not strings
    assert aligned_table(headers, rows) == reference.aligned_table(headers, rows)


def test_csv_text():
    text = csv_text(["a", "b"], [[1, None], ["x,y", 0.5]])
    assert text == 'a,b\n1,\n"x,y",0.5\n'
