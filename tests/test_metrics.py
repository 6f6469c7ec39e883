import math

import numpy as np
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
    text = aligned_table(["name", "rate"], [["m1", "any"], ["66.7%", "100.0%"]])
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
    # ragged rows become columns, each cut after the last row that has its cell, so the
    # table pads short columns as the reference pads short rows
    width = max(map(len, rows), default=0)
    columns = [[row[c] if c < len(row) else "" for row in rows] for c in range(width)]
    for c, column in enumerate(columns):
        del column[1 + max(i for i, row in enumerate(rows) if c < len(row)):]
    # rows after the last cell have no cell to be counted by, nor has a table without columns
    n_rows = max(map(len, columns), default=0)
    assert aligned_table(headers, columns) == reference.aligned_table(headers, rows[:n_rows])


def test_csv_text():
    text = csv_text(["a", "b"], [[1, "x,y"], [None, 0.5]])
    assert text == 'a,b\n1,\n"x,y",0.5\n'


CSV_CELLS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),  # beyond the float range
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324]),
    st.text(alphabet=st.sampled_from('ab,"\r\n \u2028\u00e9'), max_size=4),
)


def csv_tables():
    """Headers and one to five rectangular columns."""
    return st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(st.text(alphabet=st.sampled_from('h,"\n'), max_size=2), min_size=k, max_size=k),
        st.integers(0, 6).flatmap(lambda n: st.lists(
            st.lists(CSV_CELLS, min_size=n, max_size=n), min_size=k, max_size=k)),
    ))


@example(table=(["a", "b"], [[], []]))
@example(table=(["", ""], [["", None], [None, ""]]))
@example(table=(["id", "x"], [["a,b", 'q"x', "r\rs", "n\nt"], [1.5, -0.0, 10**400, True]]))
@example(table=(["a"], [["", None, "x"]]))  # an empty cell alone on its row is quoted
@example(table=(["a", "b"], [[np.float64(0.1), np.int64(3)], [np.str_("s"), np.bool_(True)]]))
@given(csv_tables())
def test_csv_text_matches_csv_writer_row_by_row(table):
    headers, columns = table
    assert csv_text(headers, columns) == reference.csv_text(headers, list(zip(*columns)))


def test_csv_text_spans_blocks_of_rows():
    # more rows than one block converts; a cell that needs quoting only in a later block
    ids = [f"p{i}" for i in range(2500)]
    ids[2000] = 'a,"b"'
    mixed = [[None, 1.5, "", True, 10**20, "r\rs", "n\nl"][i % 7] for i in range(2500)]
    assert csv_text(["id", "x"], [ids, mixed]) == reference.csv_text(["id", "x"], zip(ids, mixed))
    lone = ["x"] * 2500
    lone[1500] = ""
    assert csv_text(["a"], [lone]) == reference.csv_text(["a"], [[cell] for cell in lone])


def test_csv_text_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"^columns: must have equal lengths, got \[2, 1\]$"):
        csv_text(["a", "b"], [[1, 2], [3]])
