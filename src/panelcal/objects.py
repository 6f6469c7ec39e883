"""The record objects: a review, a panel of reviews, a loaded panel line and a calibration record.

Each validates its invariants at construction, like the value types of
``core``.  ``core`` exports ``RubricVector``, ``ReviewRecord``,
``ReviewPanel`` and ``CalibrationRecord``, and ``records`` exports
``PanelRecord``; both import this module on first use of one of them, so
the commands, which work on the columns of ``tables``, never build these
classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .rules import _fail, finite, sequence, text

if TYPE_CHECKING:
    from .core import RubricSchema

__all__ = ["RubricVector", "ReviewRecord", "ReviewPanel", "PanelRecord", "CalibrationRecord"]


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
