"""The column kernels against the object loops of ``tests/reference.py``.

``review``, ``bayes`` and ``detector-eval`` compute on a ``PanelTable``.
Here random panel files go through the CLI, and every CSV it writes must
equal, byte for byte, the rows built one panel at a time from
``ReviewPanel`` objects by the reference loops (consensus, score,
posterior, credible calls and corpus rates), ``decide`` and ``acpt``.  The
object API, which adapts single panels and panel sequences to the same
kernels, must match the reference loops bit for bit, errors included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import reference
from panelcal import aggregate, bayes, metrics
from panelcal.cli import main
from panelcal.core import (
    GaussianPosterior,
    ReviewerWeights,
    ReviewPanel,
    ReviewRecord,
    RubricSchema,
    RubricVector,
    ScoringFunctional,
)
from panelcal.records import PanelRecord, PanelTable, load_panel_records, load_panel_table

GRID = st.integers(100, 1000).map(lambda x: x / 100)  # rubric values on a 0.01 grid
POSITIVE = st.integers(1, 50).map(lambda x: x / 10)


@st.composite
def scenarios(draw):
    n_roster = draw(st.integers(1, 40))
    roster = [f"m{i}" for i in range(n_roster)]  # string order is not numeric order
    k = draw(st.integers(1, 4))
    panels = []
    for i in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, min(4, n_roster)))
        names = draw(st.lists(st.sampled_from(roster), min_size=m, max_size=m, unique=True))
        reviews = tuple(
            ReviewRecord(
                name,
                RubricVector(tuple(draw(st.lists(GRID, min_size=k, max_size=k)))),
                draw(st.booleans()),
                draw(st.sampled_from(["", "ok", "weak"])),
            )
            for name in names
        )
        label = draw(st.sampled_from(["absent", None, True, False]))
        panels.append((PanelRecord(f"p{i}", reviews, None if label == "absent" else label), label))
    prior_only = draw(st.lists(st.integers(0, len(panels)), max_size=2))

    if draw(st.booleans()):
        schema = RubricSchema.uniform(k, 1.0, 10.0, draw(st.integers(0, k - 1)))
        functional = ScoringFunctional.overall_pick()
    else:
        schema = draw(st.sampled_from([None, RubricSchema.uniform(k, 1.0, 10.0)]))
        coefficients = draw(
            st.lists(st.integers(-10, 10), min_size=k, max_size=k).filter(any)
        )
        functional = ScoringFunctional.linear([c / 10 for c in coefficients])
    weights = draw(st.sampled_from(["uniform", "gls", "dict"]))
    per_reviewer = {name: draw(POSITIVE) for name in roster}
    variances = {name: draw(POSITIVE) for name in roster if draw(st.booleans())}
    variances["default"] = draw(POSITIVE)
    return {
        "panels": panels,
        "prior_only": prior_only,
        "schema": schema,
        "functional": functional,
        "weights": weights,
        "per_reviewer": per_reviewer,
        "review_variances": variances,
        "thresholds": {"tau_rate": draw(GRID), "tau_05": draw(GRID),
                       "target_rate": 0.3, "calibration_size": 10},
        "bayes_threshold": draw(GRID),
        "alpha": draw(st.sampled_from([0.05, 0.2])),
    }


def panel_line(record: PanelRecord, label) -> str:
    obj: dict = {"id": record.submission_id}
    if label != "absent":
        obj["label"] = label
    reviews = []
    for review in record.reviews:
        values = review.rubric.values
        raw: dict = {"reviewer": review.reviewer_id, "flag": review.integrity_flag}
        if len(values) == 1 and review.feedback == "ok":  # a scalar review
            raw["overall"] = values[0]
        else:
            raw["rubric"] = list(values)
        if review.feedback:
            raw["feedback"] = review.feedback
        reviews.append(raw)
    obj["reviews"] = reviews
    return json.dumps(obj)


def config_of(s: dict) -> dict:
    schema, functional = s["schema"], s["functional"]
    config: dict = {
        "functional": {"kind": functional.kind, "coefficients": functional.coefficients}
        if functional.kind == "linear" else {"kind": "overall_pick"},
        "bayes": {"prior_mean": 5.5, "prior_variance": 4.0, "alpha": s["alpha"],
                  "threshold": s["bayes_threshold"],
                  "review_variances": s["review_variances"]},
    }
    if schema is not None:
        config["schema"] = {"criteria_count": schema.criteria_count,
                            "bounds": [list(b) for b in schema.bounds],
                            "overall_index": schema.overall_index}
    if s["weights"] == "gls":
        config["weights"] = "gls"
        config["gls_variances"] = s["per_reviewer"]
    elif s["weights"] == "dict":
        config["weights"] = s["per_reviewer"]
    return config


def cli(argv: list[str], out: Path) -> tuple[int, str, Path | None]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    match = re.search(r"run directory: (.+)", stdout.getvalue())
    return code, stderr.getvalue(), Path(match.group(1)) if match else None


# ---------------------------------------------------------------- reference loops


def weights_of(panel: ReviewPanel, s: dict) -> ReviewerWeights:
    if s["weights"] == "uniform":
        return ReviewerWeights.uniform(len(panel.reviews))
    values = [s["per_reviewer"][r] for r in panel.reviewer_ids]
    if s["weights"] == "gls":
        return aggregate.gls_weights(values)
    total = sum(values)
    return ReviewerWeights(tuple(v / total for v in values))


def expected_review(panels: list[ReviewPanel], s: dict) -> tuple[str, str]:
    schema, functional, taus = s["schema"], s["functional"], s["thresholds"]
    scores = {
        p.submission_id: reference.score(
            reference.consensus_rubric(p, weights_of(p, s)), functional, schema)
        for p in panels
    }
    decisions = {
        label: {pid: aggregate.decide(v, taus[label]) for pid, v in scores.items()}
        for label in ("tau_rate", "tau_05")
    }
    decision_rows = [
        (p.submission_id, scores[p.submission_id],
         decisions["tau_rate"][p.submission_id].accept,
         decisions["tau_rate"][p.submission_id].margin,
         decisions["tau_05"][p.submission_id].accept,
         decisions["tau_05"][p.submission_id].margin, p.any_flag)
        for p in panels
    ]
    n = len(panels)
    roster = sorted({r.reviewer_id for p in panels for r in p.reviews})
    rows: list[tuple] = []
    for label in ("tau_rate", "tau_05"):
        value = metrics.acpt(list(decisions[label].values()))
        rows.append(("acpt", label, value, round(value * n), n))
    for reviewer in roster:
        subset = [p for p in panels if reviewer in p.reviewer_ids]
        value = reference.icr_per_model(subset, reviewer)
        rows.append(("icr", reviewer, value, round(value * len(subset)), len(subset)))
    value = reference.icr_any(panels)
    rows.append(("icr", "any", value, round(value * n), n))
    for label in ("tau_rate", "tau_05"):
        for reviewer in [*roster, None]:
            subset = panels if reviewer is None else [
                p for p in panels if reviewer in p.reviewer_ids]
            value = reference.conflict_rate(subset, scores, taus[label], reviewer)
            flagged = sum(
                1 for p in subset
                if (p.any_flag if reviewer is None else p.review_by(reviewer).integrity_flag)
            )
            rows.append((f"conflict_{label}", reviewer or "any", value,
                         round(value * flagged) if flagged else None, flagged))
    header = ["id", "score", "accept_tau_rate", "margin_tau_rate", "accept_tau_05",
              "margin_tau_05", "any_flag"]
    return (metrics.csv_text(header, decision_rows),
            metrics.csv_text(["metric", "scope", "value", "numerator", "denominator"], rows))


def expected_bayes(records: list[PanelRecord], s: dict) -> str:
    prior = GaussianPosterior(5.5, 4.0)
    variances = s["review_variances"]
    threshold, alpha = s["bayes_threshold"], s["alpha"]
    rows = []
    for record in records:
        observations = []
        for review in record.reviews:
            single = ReviewPanel(record.submission_id, (review,))
            consensus = reference.consensus_rubric(single, ReviewerWeights.uniform(1))
            observations.append((
                reference.score(consensus, s["functional"], s["schema"]),
                variances.get(review.reviewer_id, variances["default"]),
            ))
        posterior = reference.posterior_update(prior, observations)
        p_accept = reference.acceptance_probability(posterior, threshold)
        rows.append((
            record.submission_id, len(record.reviews), posterior.mean, posterior.variance,
            p_accept, p_accept >= 0.5, reference.credible_robust(posterior, threshold, alpha),
            reference.solicit_worthwhile(posterior, threshold, alpha, variances["default"]),
            "" if record.reviews else "prior-only",
        ))
    header = ["id", "n_reviews", "posterior_mean", "posterior_variance", "p_accept",
              "accept", "robust", "solicit", "note"]
    return metrics.csv_text(header, rows)


def expected_detector(panels: list[ReviewPanel]) -> str:
    roster = sorted({r.reviewer_id for p in panels for r in p.reviews})
    rows = []
    for name in [*roster, "any"]:
        if name == "any":
            counts = reference.detector_counts(panels, None)
        else:
            counts = reference.detector_counts(
                [p for p in panels if name in p.reviewer_ids], name)
        m = metrics.detector_metrics(counts)
        rows.append((name, counts.tp, counts.fp, counts.tn, counts.fn,
                     m.tpr, m.fpr, m.accuracy, m.f1))
    positives = sum(1 for p in panels if p.fabrication_label)
    negatives = len(panels) - positives
    f1 = 2 * positives / (3 * positives + negatives) if positives else 0.0
    rows.append(("random-baseline", None, None, None, None, 0.5, 0.5, 0.5, f1))
    return metrics.csv_text(
        ["reviewer", "tp", "fp", "tn", "fn", "tpr", "fpr", "accuracy", "f1"], rows)


# ---------------------------------------------------------------- property


@given(scenarios())
def test_panel_commands_match_object_path(s):
    records = [record for record, _ in s["panels"]]
    lines = [panel_line(record, label) for record, label in s["panels"]]
    bayes_records = list(records)
    bayes_lines = list(lines)
    for n, position in enumerate(sorted(s["prior_only"], reverse=True)):
        empty = PanelRecord(f"q{n}", ())
        bayes_records.insert(position, empty)
        bayes_lines.insert(position, panel_line(empty, "absent"))
    panels = [record.to_panel() for record in records]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {}
        for name, text in (
            ("panels.jsonl", "\n".join(lines) + "\n"),
            ("bayes.jsonl", "\n".join(bayes_lines) + "\n"),
            ("thresholds.json", json.dumps(s["thresholds"])),
            ("config.json", json.dumps(config_of(s))),
        ):
            files[name] = str(tmp / name)
            (tmp / name).write_text(text, encoding="utf-8")
        out = tmp / "runs"

        assert load_panel_records(files["panels.jsonl"]) == records
        assert load_panel_records(files["bayes.jsonl"]) == bayes_records
        loaded = load_panel_table(files["bayes.jsonl"])
        built = PanelTable.from_panels(bayes_records)
        for field in dataclasses.fields(PanelTable):
            if field.name != "path":
                assert np.array_equal(getattr(loaded, field.name), getattr(built, field.name))
        assert built.where(0) == f"panel {bayes_records[0].submission_id!r}"

        code, err, run_dir = cli(["review", "--panels", files["panels.jsonl"],
                                  "--thresholds", files["thresholds.json"],
                                  "--config", files["config.json"]], out)
        assert code == 0, err
        decisions, metric_rows = expected_review(panels, s)
        assert (run_dir / "decisions.csv").read_text() == decisions
        assert (run_dir / "metrics.csv").read_text() == metric_rows

        code, err, run_dir = cli(["bayes", "--panels", files["bayes.jsonl"],
                                  "--config", files["config.json"]], out)
        assert code == 0, err
        assert (run_dir / "bayes.csv").read_text() == expected_bayes(bayes_records, s)

        code, err, run_dir = cli(["detector-eval", "--panels", files["panels.jsonl"]], out)
        if all(p.fabrication_label is not None for p in panels):
            assert code == 0, err
            assert (run_dir / "detector.csv").read_text() == expected_detector(panels)
        else:
            assert code == 2
            assert "has no fabrication_label" in err
            assert run_dir is None


def test_large_uniform_panels_match_object_path(tmp_path):
    # ten weights of 1/10 sum to 0.9999999999999999, so from about six
    # reviewers on the uniform weights' renormalization changes the last bit
    roster = [f"m{i}" for i in range(12)]
    records = [
        PanelRecord(f"p{m}", tuple(
            ReviewRecord(name, RubricVector((1.01 + 0.37 * j, 9.99 - 0.83 * j)), j == m - 1)
            for j, name in enumerate(roster[:m])
        ))
        for m in range(1, 13)
    ]
    s = {"schema": None, "functional": ScoringFunctional.linear([0.3, 0.7]),
         "weights": "uniform", "per_reviewer": {}, "review_variances": {"default": 1.0},
         "thresholds": {"tau_rate": 5.0, "tau_05": 5.5, "target_rate": 0.3,
                        "calibration_size": 10},
         "bayes_threshold": 5.0, "alpha": 0.05}
    files = {}
    for name, text in (
        ("panels.jsonl", "\n".join(panel_line(r, "absent") for r in records) + "\n"),
        ("thresholds.json", json.dumps(s["thresholds"])),
        ("config.json", json.dumps(config_of(s))),
    ):
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, err, run_dir = cli(["review", "--panels", files["panels.jsonl"],
                              "--thresholds", files["thresholds.json"],
                              "--config", files["config.json"]], tmp_path / "runs")
    assert code == 0, err
    decisions, metric_rows = expected_review([r.to_panel() for r in records], s)
    assert (run_dir / "decisions.csv").read_text() == decisions
    assert (run_dir / "metrics.csv").read_text() == metric_rows


# ---------------------------------------------------------------- object API

ADAPTERS = {
    aggregate: ("consensus_rubric", "score"),
    bayes: ("posterior_update", "acceptance_probability", "credible_robust",
            "solicit_worthwhile"),
    metrics: ("icr_per_model", "icr_any", "conflict_rate", "detector_counts"),
}


def outcome(fn, *args) -> str:
    """The repr of what ``fn(*args)`` returns, or the message of the ValueError it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(scenarios(), st.sampled_from([math.inf, math.nan, 0.0, -1.0]), st.data())
def test_object_api_matches_reference_loops(s, bad, data):
    called = set()

    def same(name, *args):
        module = next(m for m, names in ADAPTERS.items() if name in names)
        assert outcome(getattr(module, name), *args) == outcome(getattr(reference, name), *args)
        called.add(name)

    panels = [record.to_panel() for record, _ in s["panels"]]
    schema, functional = s["schema"], s["functional"]
    scores = {}
    for panel in panels:
        same("consensus_rubric", panel, weights_of(panel, s))
        same("consensus_rubric", panel, ReviewerWeights.uniform(len(panel.reviews) + 1))
        consensus = reference.consensus_rubric(panel, weights_of(panel, s))
        same("score", consensus, functional, schema)
        scores[panel.submission_id] = reference.score(consensus, functional, schema)
    k = len(consensus)
    same("score", consensus, ScoringFunctional.linear([1.0] * (k + 1)))
    same("score", consensus, ScoringFunctional.overall_pick())
    same("score", consensus, ScoringFunctional.overall_pick(),
         RubricSchema.uniform(k + 1, 1.0, 10.0, k))

    prior = GaussianPosterior(5.5, 4.0)
    variances, alpha = s["review_variances"], s["alpha"]
    for panel in [None, *panels]:
        reviews = [] if panel is None else [
            (r.rubric.values[0], variances.get(r.reviewer_id, variances["default"]))
            for r in panel.reviews
        ]
        same("posterior_update", prior, reviews)
        posterior = reference.posterior_update(prior, reviews)
        for threshold in (s["bayes_threshold"], posterior.mean, bad):
            same("acceptance_probability", posterior, threshold)
            same("credible_robust", posterior, threshold, alpha)
            same("solicit_worthwhile", posterior, threshold, alpha, variances["default"])
    same("posterior_update", prior, [*reviews, (bad, 1.0)])
    same("posterior_update", prior, [*reviews, (5.0, bad)])
    same("credible_robust", posterior, s["bayes_threshold"], bad)
    same("solicit_worthwhile", posterior, s["bayes_threshold"], bad, 1.0)
    same("solicit_worthwhile", posterior, s["bayes_threshold"], alpha, bad)

    # per-reviewer subsets; every panel, where some lack the reviewer; no panel
    taus = (s["thresholds"]["tau_rate"], s["thresholds"]["tau_05"], math.nan)
    roster = sorted({r.reviewer_id for p in panels for r in p.reviews})
    partial = dict(scores)
    del partial[data.draw(st.sampled_from(sorted(scores)))]
    for name in [*roster, "absent", None]:
        subset = [p for p in panels if name is None or name in p.reviewer_ids]
        for group in (subset, panels, []):
            if name is None:
                same("icr_any", group)
            else:
                same("icr_per_model", group, name)
            same("detector_counts", group, name)
            for mapping in (scores, partial):
                for tau in taus:
                    same("conflict_rate", group, mapping, tau, name)
    assert called == {name for names in ADAPTERS.values() for name in names}
