"""The object layer: the value types and functions that the library's callers pass objects through.

The commands work on the columns of ``tables`` and never build these
classes.  This module defines the record objects (``RubricVector``,
``ReviewRecord``, ``ReviewPanel``, ``PanelRecord`` and
``CalibrationRecord``), the object-taking forms of the consensus and
decision (``ConsensusRubric``, ``Decision``, ``consensus_rubric``,
``score``, ``decide``, ``gls_weights``, ``panel_variance``), of the
corpus rates (``ConfusionCounts``, ``DetectorMetrics``, ``acpt``,
``icr_per_model``, ``icr_any``, ``conflict_rate``, ``detector_counts``,
``detector_metrics``) and of the credible calls (``posterior_update``,
``acceptance_probability``, ``credible_robust``,
``solicit_worthwhile``).  Each validates its invariants at
construction, like the value types of ``core``, and runs the column
kernels of ``aggregate``, ``metrics`` and ``bayes``.  ``core``,
``aggregate``, ``records``, ``metrics`` and ``bayes`` re-export these
names and import this module on first use of one.  The reviewer
weights and bound inputs live in ``weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .aggregate import consensus_rows, score_rows
from .bayes import GaussianPosterior, credible_calls, posterior_arrays
from .bounds import _weighted_square_sum
from .metrics import conflict_counts, confusion_counts, detector_rates, flag_counts
from .rules import _fail, finite, integer, non_negative, not_nan, open_unit, positive, sequence, text, unit
from .tables import PanelTable
from .weights import ReviewerWeights, left_sum

if TYPE_CHECKING:
    from .core import RubricSchema, ScoringFunctional

__all__ = [
    "RubricVector",
    "ReviewRecord",
    "ReviewPanel",
    "PanelRecord",
    "CalibrationRecord",
    "ConsensusRubric",
    "Decision",
    "consensus_rubric",
    "score",
    "decide",
    "gls_weights",
    "panel_variance",
    "ConfusionCounts",
    "DetectorMetrics",
    "acpt",
    "icr_per_model",
    "icr_any",
    "conflict_rate",
    "detector_counts",
    "detector_metrics",
    "posterior_update",
    "acceptance_probability",
    "credible_robust",
    "solicit_worthwhile",
]


@dataclass(frozen=True)
class RubricVector:
    """One reviewer's per-criterion scores."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", finite.each("values", self.values, non_empty=True))

    def __len__(self) -> int:
        return len(self.values)

    def check_schema(self, schema: RubricSchema) -> None:
        """Raise ValueError if the vector does not fit ``schema``."""
        if len(self.values) != schema.criteria_count:
            _fail("values", f"expected {schema.criteria_count} criteria, got {len(self.values)}")
        for k, (v, (lo, hi)) in enumerate(zip(self.values, schema.bounds)):
            if not lo <= v <= hi:
                _fail(f"values[{k}]", f"score {v} outside bounds [{lo}, {hi}]")


@dataclass(frozen=True)
class ReviewRecord:
    """A single review: who wrote it, the rubric scores, flag, feedback."""

    reviewer_id: str
    rubric: RubricVector
    integrity_flag: bool = False
    feedback: str = ""

    def __post_init__(self) -> None:
        text("reviewer_id", self.reviewer_id)
        if not isinstance(self.rubric, RubricVector):
            _fail("rubric", f"must be a RubricVector, got {type(self.rubric).__name__}")
        if not isinstance(self.integrity_flag, bool):
            _fail("integrity_flag", "must be a bool")
        if not isinstance(self.feedback, str):
            _fail("feedback", "must be a string")


@dataclass(frozen=True)
class ReviewPanel:
    """All reviews of one submission, with an optional ground-truth label."""

    submission_id: str
    reviews: tuple[ReviewRecord, ...]
    fabrication_label: bool | None = None

    def __post_init__(self) -> None:
        text("submission_id", self.submission_id)
        reviews = tuple(sequence("reviews", self.reviews, "reviews", non_empty=True))
        object.__setattr__(self, "reviews", reviews)
        seen: set[str] = set()
        for r in reviews:
            if not isinstance(r, ReviewRecord):
                _fail("reviews", f"entries must be ReviewRecord, got {type(r).__name__}")
            if r.reviewer_id in seen:
                _fail("reviews", f"duplicate reviewer_id {r.reviewer_id!r}")
            seen.add(r.reviewer_id)
        first = len(reviews[0].rubric)
        for r in reviews[1:]:
            if len(r.rubric) != first:
                _fail(
                    "reviews",
                    f"rubric length mismatch: {r.reviewer_id!r} has {len(r.rubric)}, expected {first}",
                )
        if self.fabrication_label is not None and not isinstance(self.fabrication_label, bool):
            _fail("fabrication_label", "must be a bool or None")

    @property
    def reviewer_ids(self) -> tuple[str, ...]:
        return tuple(r.reviewer_id for r in self.reviews)

    @property
    def criteria_count(self) -> int:
        return len(self.reviews[0].rubric)

    @property
    def any_flag(self) -> bool:
        return any(r.integrity_flag for r in self.reviews)

    def review_by(self, reviewer_id: str) -> ReviewRecord:
        for r in self.reviews:
            if r.reviewer_id == reviewer_id:
                return r
        _fail("reviewer_id", f"no review by {reviewer_id!r} in panel {self.submission_id!r}")
        raise AssertionError  # unreachable

    def validate_schema(self, schema: RubricSchema) -> None:
        for r in self.reviews:
            try:
                r.rubric.check_schema(schema)
            except ValueError as exc:
                raise ValueError(f"panel {self.submission_id!r}, reviewer {r.reviewer_id!r}: {exc}") from exc


@dataclass(frozen=True)
class PanelRecord:
    """One panel line as loaded; reviews may be empty (prior-only rows)."""

    submission_id: str
    reviews: tuple[ReviewRecord, ...]
    fabrication_label: bool | None = None


@dataclass(frozen=True)
class CalibrationRecord:
    """One calibration observation: agent score, human accept/reject, status."""

    submission_id: str
    agent_score: float
    human_accept: bool
    status: str

    def __post_init__(self) -> None:
        text("submission_id", self.submission_id)
        object.__setattr__(self, "agent_score", finite("agent_score", self.agent_score))
        if not isinstance(self.human_accept, bool):
            _fail("human_accept", "must be a bool")
        text("status", self.status)


@dataclass(frozen=True)
class ConsensusRubric:
    """Weighted per-criterion average over a panel's reviews."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", finite.each("values", self.values, non_empty=True))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Decision:
    """Outcome of comparing a score against a threshold.

    Accepts exactly when ``score >= threshold`` (boundary inclusive);
    ``margin`` is ``score - threshold``.
    """

    score: float
    threshold: float
    accept: bool
    margin: float

    def __post_init__(self) -> None:
        finite("score", self.score)
        not_nan("threshold", self.threshold)
        if self.accept != (self.score >= self.threshold):
            raise ValueError("accept: inconsistent with score >= threshold")
        if self.margin != self.score - self.threshold:
            raise ValueError("margin: must equal score - threshold")


def consensus_rubric(panel: ReviewPanel, weights: ReviewerWeights) -> ConsensusRubric:
    """Weight-average the panel's rubrics criterion by criterion (``aggregate.consensus_rows``)."""
    if len(weights) != len(panel.reviews):
        raise ValueError(
            f"weights: expected {len(panel.reviews)} entries for panel "
            f"{panel.submission_id!r}, got {len(weights)}"
        )
    table = PanelTable.from_panels([panel])
    rows = consensus_rows(table.rubric, np.array(weights.weights), table.counts)
    return ConsensusRubric(tuple(rows[0].tolist()))


def score(
    consensus: ConsensusRubric,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> float:
    """Collapse a consensus rubric to a scalar via the scoring functional (``aggregate.score_rows``).

    ``overall_pick`` requires a schema whose ``overall_index`` is set.
    """
    return float(score_rows(np.array([consensus.values]), functional, schema)[0])


def decide(value: float, threshold: float) -> Decision:
    """Accept iff ``value >= threshold``; the boundary accepts.

    ``Decision``'s rules run on both numbers before they are compared.
    """
    value, threshold = finite("score", value), not_nan("threshold", threshold)
    return Decision(score=value, threshold=threshold, accept=value >= threshold, margin=value - threshold)


def gls_weights(projected_variances: Sequence[float]) -> ReviewerWeights:
    """Precision weights: w_m proportional to the inverse projected variance.

    These minimize the weighted consensus variance sum(w_m^2 c_m) subject
    to the weights summing to one.  Every variance must be > 0.
    """
    variances = positive.each("projected_variances", projected_variances, non_empty=True)
    inverse = [1.0 / v for v in variances]
    total = left_sum(inverse)
    return ReviewerWeights(tuple(x / total for x in inverse))


def panel_variance(weights: ReviewerWeights, projected_variances: Sequence[float]) -> float:
    """Weighted consensus variance sum_m w_m^2 c_m."""
    variances = non_negative.each("projected_variances", projected_variances, len(weights))
    return _weighted_square_sum(weights.weights, variances)


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary-detection outcome counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            object.__setattr__(self, name, integer(name, getattr(self, name), 0))
        if self.total < 1:
            _fail("tp", "counts must sum to at least 1")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class DetectorMetrics:
    """Detection rates from a confusion table; absent on empty denominators."""

    tpr: float | None
    fpr: float | None
    accuracy: float
    f1: float

    def __post_init__(self) -> None:
        for name in ("tpr", "fpr", "accuracy", "f1"):
            if getattr(self, name) is not None or name in ("accuracy", "f1"):  # tpr and fpr may be absent
                object.__setattr__(self, name, unit(name, getattr(self, name)))


def _entries(field: str, values: Sequence[object], kind: type, of: str) -> Sequence[object]:
    """``values`` if it is a non-empty sequence of ``kind``; else ``field`` or ``field[i]``'s ValueError."""
    values = sequence(field, values, of, non_empty=True)
    for i, value in enumerate(values):
        if not isinstance(value, kind):
            _fail(f"{field}[{i}]", f"must be a {kind.__name__}, got {type(value).__name__}")
    return values


def acpt(decisions: Sequence[Decision]) -> float:
    """Fraction of decisions that accepted."""
    decisions = _entries("decisions", decisions, Decision, "decisions")
    return sum(1 for d in decisions if d.accept) / len(decisions)


def _scope(
    panels: Sequence[ReviewPanel], reviewer_id: str | None, labeled: bool = False
) -> tuple[PanelTable, int]:
    """The panels as a table and the index of ``reviewer_id`` (None: ``any``) in its counts;
    raises at the first panel with no label (if ``labeled``) or no review by ``reviewer_id``."""
    panels = _entries("panels", panels, ReviewPanel, "panels")
    table = PanelTable.from_panels(panels)
    scope = table.roster.index(reviewer_id) if reviewer_id in table.roster else -1
    unlabeled = ~table.labeled & labeled
    unreviewed = ~table.panel_any(table.reviewer == scope) & (reviewer_id is not None)
    for i in np.flatnonzero(unlabeled | unreviewed)[:1].tolist():
        if unlabeled[i]:
            raise ValueError(f"panels: panel {table.ids[i]!r} has no fabrication_label")
        panels[i].review_by(reviewer_id)  # raises its "no review by" error
    return table, scope


def icr_per_model(panels: Sequence[ReviewPanel], reviewer_id: str) -> float:
    """Fraction of panels in which the given reviewer raised a flag (``metrics.flag_counts``)."""
    table, scope = _scope(panels, reviewer_id)
    return flag_counts(table)[0][scope] / len(table)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    """Fraction of panels in which at least one reviewer raised a flag."""
    table, scope = _scope(panels, None)
    return flag_counts(table)[0][scope] / len(table)


def conflict_rate(
    panels: Sequence[ReviewPanel],
    scores: Mapping[str, float],
    threshold: float,
    reviewer_id: str | None = None,
) -> float | None:
    """Among flagged panels, the fraction still scored at acceptance level (``metrics.conflict_counts``).

    Flagging is per-reviewer when ``reviewer_id`` is given, any-reviewer
    otherwise.  Returns None when no panel is flagged (the rate is
    conditional and has no denominator).
    """
    panels = _entries("panels", panels, ReviewPanel, "panels")  # the panels are refused before the threshold
    threshold = not_nan("threshold", threshold)
    table, scope = _scope(panels, reviewer_id)
    flagged = flag_counts(table)[0][scope]
    if not flagged:
        return None
    hit = table.any_flag if scope < 0 else table.panel_any(table.flags & (table.reviewer == scope))
    values = []
    for submission_id, flagged_here in zip(table.ids, hit.tolist()):
        if flagged_here and submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {submission_id!r}")
        values.append(finite(f"scores[{submission_id!r}]", scores[submission_id]) if flagged_here
                      else math.nan)  # NaN never accepts
    return conflict_counts(table, np.array(values) >= threshold)[scope] / flagged


def detector_counts(
    panels: Sequence[ReviewPanel],
    reviewer_id: str | None = None,
) -> ConfusionCounts:
    """Confusion counts treating flags as fabrication predictions (``metrics.confusion_counts``).

    Truth is each panel's fabrication label; every panel must be labeled.
    """
    table, scope = _scope(panels, reviewer_id, labeled=True)
    return ConfusionCounts(*(column[scope] for column in confusion_counts(table)))


def detector_metrics(counts: ConfusionCounts) -> DetectorMetrics:
    """TPR, FPR, accuracy, F1 from confusion counts (``metrics.detector_rates``), checked by ``DetectorMetrics``."""
    return DetectorMetrics(*detector_rates(counts.tp, counts.fp, counts.tn, counts.fn))


def posterior_update(
    prior: GaussianPosterior,
    reviews: Sequence[tuple[float, float]],
) -> GaussianPosterior:
    """Precision-weighted conjugate update with (score, variance) reviews (``bayes.posterior_arrays``).

    Posterior precision is the prior precision plus each review's
    precision; the mean is the precision-weighted average.  An empty
    review sequence returns the prior unchanged.
    """
    checked = []
    for i, review in enumerate(sequence("reviews", reviews, "(score, variance) pairs")):
        score, variance = sequence(f"reviews[{i}]", review, "numbers", 2)
        checked.append((finite(f"reviews[{i}].score", score), positive(f"reviews[{i}].variance", variance)))
    scores, variances = np.array(checked, dtype=float).reshape(-1, 2).T
    means, variances = posterior_arrays(prior, scores, variances, np.array([len(checked)]))
    return GaussianPosterior(mean=float(means[0]), variance=float(variances[0]))


def _calls(posterior: GaussianPosterior, threshold: float, alpha: float, new_variance: float):
    """``bayes.credible_calls`` of one posterior, after checking threshold and alpha."""
    calls = credible_calls(np.array([posterior.mean]), np.array([posterior.variance]),
                           finite("threshold", threshold), open_unit("alpha", alpha), new_variance)
    return [column.item() for column in calls]


def acceptance_probability(posterior: GaussianPosterior, threshold: float) -> float:
    """Posterior probability that latent quality reaches the threshold."""
    return _calls(posterior, threshold, 0.5, 1.0)[0]  # p_accept needs neither of the last two


def credible_robust(posterior: GaussianPosterior, threshold: float, alpha: float) -> bool:
    """True when the threshold lies outside the central (1 - alpha) interval.

    Equivalent to |threshold - mean| >= z_{1 - alpha/2} * posterior std,
    so the accept/reject call would survive the credible band.
    """
    return _calls(posterior, threshold, alpha, 1.0)[1]  # robust needs no new_review_variance


def solicit_worthwhile(
    posterior: GaussianPosterior,
    threshold: float,
    alpha: float,
    new_review_variance: float,
) -> bool:
    """Whether one more review of the given variance could settle the call.

    False when the decision is already credible-robust.  Otherwise the
    posterior std after one more review is computed; soliciting is
    worthwhile only if the current margin would clear the credible band
    at that tighter std (best case: the new review confirms the mean).
    """
    new_review_variance = positive("new_review_variance", new_review_variance)
    return _calls(posterior, threshold, alpha, new_review_variance)[2]
