"""Shared domain types for the review aggregation and calibration stack.

Every type validates its invariants at construction and raises
``ValueError`` with a message that names the violated field.  All types
are immutable.  ``panelcal.config`` builds the types read from config and
thresholds files and reports these errors under the key path.  The two
errors the command line maps to exit codes, ``RecordError`` (2) and
``ThresholdUnreachableError`` (3), live here too, so catching them needs no
numpy; ``records`` and ``calibrate`` re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "RubricSchema",
    "RubricVector",
    "ReviewRecord",
    "ReviewPanel",
    "ReviewerWeights",
    "ScoringFunctional",
    "NoiseProfile",
    "BoundInputs",
    "CalibrationRecord",
    "DecisionThresholds",
    "GaussianPosterior",
    "ConfusionCounts",
    "RecordError",
    "ThresholdUnreachableError",
    "left_sum",
]

_WEIGHT_SUM_TOL = 1e-9


class RecordError(ValueError):
    """Malformed input file or config; the message names the file and line or the key path."""


class ThresholdUnreachableError(ValueError):
    """The fitted tail curve never reaches the requested level."""


def _fail(field: str, message: str) -> None:
    raise ValueError(f"{field}: {message}")


def left_sum(values: Iterable[float]) -> float:
    """Float sum added left to right, like ``PanelTable.panel_sums`` (not 3.12's ``sum``)."""
    total = 0.0
    for value in values:
        total += value
    return total


def _check_finite(field: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        _fail(field, f"must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class RubricSchema:
    """Shape of a rubric: criteria count and per-criterion score bounds."""

    criteria_count: int
    bounds: tuple[tuple[float, float], ...]
    overall_index: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.criteria_count, int) or self.criteria_count < 1:
            _fail("criteria_count", f"must be an integer >= 1, got {self.criteria_count!r}")
        bounds = tuple((float(a), float(b)) for a, b in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) != self.criteria_count:
            _fail("bounds", f"expected {self.criteria_count} pairs, got {len(bounds)}")
        for k, (lo, hi) in enumerate(bounds):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                _fail(f"bounds[{k}]", "endpoints must be finite")
            if not lo < hi:
                _fail(f"bounds[{k}]", f"lower bound must be strictly below upper, got ({lo}, {hi})")
        if self.overall_index is not None:
            if not isinstance(self.overall_index, int):
                _fail("overall_index", "must be an integer or None")
            if not 0 <= self.overall_index < self.criteria_count:
                _fail("overall_index", f"must lie in [0, {self.criteria_count}), got {self.overall_index}")

    @classmethod
    def uniform(
        cls,
        criteria_count: int,
        low: float,
        high: float,
        overall_index: int | None = None,
    ) -> "RubricSchema":
        return cls(criteria_count, ((low, high),) * criteria_count, overall_index)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.bounds)


@dataclass(frozen=True)
class RubricVector:
    """One reviewer's per-criterion scores."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            _fail("values", "must contain at least one criterion score")
        for k, v in enumerate(values):
            if not math.isfinite(v):
                _fail(f"values[{k}]", f"must be finite, got {v!r}")

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
        if not isinstance(self.reviewer_id, str) or not self.reviewer_id:
            _fail("reviewer_id", "must be a non-empty string")
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
        if not isinstance(self.submission_id, str) or not self.submission_id:
            _fail("submission_id", "must be a non-empty string")
        reviews = tuple(self.reviews)
        object.__setattr__(self, "reviews", reviews)
        if not reviews:
            _fail("reviews", "panel must contain at least one review")
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
class ReviewerWeights:
    """Non-negative reviewer weights; stored renormalized to sum exactly 1.

    Inputs whose sum deviates from 1 by more than 1e-9 are rejected rather
    than silently rescaled.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        if not weights:
            _fail("weights", "must contain at least one weight")
        for m, w in enumerate(weights):
            if not math.isfinite(w):
                _fail(f"weights[{m}]", f"must be finite, got {w!r}")
            if w < 0:
                _fail(f"weights[{m}]", f"must be non-negative, got {w}")
        total = left_sum(weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            _fail("weights", f"must sum to 1 within {_WEIGHT_SUM_TOL}, got sum {total!r}")
        object.__setattr__(self, "weights", tuple(w / total for w in weights))

    @classmethod
    def uniform(cls, count: int) -> "ReviewerWeights":
        if count < 1:
            _fail("count", f"must be >= 1, got {count}")
        return cls((1.0 / count,) * count)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class ScoringFunctional:
    """Map from a consensus rubric to a scalar score.

    ``linear`` takes the inner product with ``coefficients``; its Lipschitz
    constant is the Euclidean norm of the coefficients.  ``overall_pick``
    selects the criterion a schema designates as the overall score and has
    Lipschitz constant 1.
    """

    kind: str
    coefficients: tuple[float, ...] | None = None

    _KINDS = ("linear", "overall_pick")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            _fail("kind", f"must be one of {self._KINDS}, got {self.kind!r}")
        if self.kind == "linear":
            if self.coefficients is None:
                _fail("coefficients", "required for the linear variant")
            coeffs = tuple(float(c) for c in self.coefficients)
            object.__setattr__(self, "coefficients", coeffs)
            if not coeffs:
                _fail("coefficients", "must contain at least one coefficient")
            for k, c in enumerate(coeffs):
                if not math.isfinite(c):
                    _fail(f"coefficients[{k}]", f"must be finite, got {c!r}")
            if not any(c != 0.0 for c in coeffs):
                _fail("coefficients", "must not be all zero")
        else:
            if self.coefficients is not None:
                _fail("coefficients", "must be absent for the overall_pick variant")

    @classmethod
    def linear(cls, coefficients: Sequence[float]) -> "ScoringFunctional":
        return cls("linear", tuple(coefficients))

    @classmethod
    def mean(cls, criteria_count: int) -> "ScoringFunctional":
        if criteria_count < 1:
            _fail("criteria_count", f"must be >= 1, got {criteria_count}")
        return cls("linear", (1.0 / criteria_count,) * criteria_count)

    @classmethod
    def overall_pick(cls) -> "ScoringFunctional":
        return cls("overall_pick", None)

    @property
    def lipschitz_constant(self) -> float:
        if self.kind == "overall_pick":
            return 1.0
        assert self.coefficients is not None
        return math.sqrt(sum(c * c for c in self.coefficients))


@dataclass(frozen=True)
class NoiseProfile:
    """Per-reviewer score-noise variances plus the shared scalar score range."""

    per_reviewer_variance: tuple[float, ...]
    scalar_bounds: tuple[float, float]

    def __post_init__(self) -> None:
        variances = tuple(float(v) for v in self.per_reviewer_variance)
        object.__setattr__(self, "per_reviewer_variance", variances)
        if not variances:
            _fail("per_reviewer_variance", "must contain at least one variance")
        for m, v in enumerate(variances):
            if not math.isfinite(v) or v < 0:
                _fail(f"per_reviewer_variance[{m}]", f"must be finite and >= 0, got {v!r}")
        lo, hi = (float(self.scalar_bounds[0]), float(self.scalar_bounds[1]))
        object.__setattr__(self, "scalar_bounds", (lo, hi))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            _fail("scalar_bounds", f"must satisfy lo < hi with finite endpoints, got ({lo}, {hi})")

    @property
    def reviewer_count(self) -> int:
        return len(self.per_reviewer_variance)

    @property
    def range_width(self) -> float:
        return self.scalar_bounds[1] - self.scalar_bounds[0]


@dataclass(frozen=True)
class BoundInputs:
    """Sufficient statistics for the consensus tail bound.

    ``sigma_w_sq`` is the weighted consensus variance proxy, ``c_max`` the
    largest single-review influence on the consensus score, and
    ``projected_variances`` optionally carries each reviewer's variance
    projected through the scoring direction (used for precision weighting).
    """

    sigma_w_sq: float
    c_max: float
    projected_variances: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_w_sq", _check_finite("sigma_w_sq", self.sigma_w_sq))
        object.__setattr__(self, "c_max", _check_finite("c_max", self.c_max))
        if self.sigma_w_sq < 0:
            _fail("sigma_w_sq", f"must be >= 0, got {self.sigma_w_sq}")
        if self.c_max < 0:
            _fail("c_max", f"must be >= 0, got {self.c_max}")
        if self.projected_variances is not None:
            proj = tuple(float(v) for v in self.projected_variances)
            object.__setattr__(self, "projected_variances", proj)
            for m, v in enumerate(proj):
                if not math.isfinite(v) or v < 0:
                    _fail(f"projected_variances[{m}]", f"must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class CalibrationRecord:
    """One calibration observation: agent score, human accept/reject, status."""

    submission_id: str
    agent_score: float
    human_accept: bool
    status: str

    def __post_init__(self) -> None:
        if not isinstance(self.submission_id, str) or not self.submission_id:
            _fail("submission_id", "must be a non-empty string")
        object.__setattr__(self, "agent_score", _check_finite("agent_score", self.agent_score))
        if not isinstance(self.human_accept, bool):
            _fail("human_accept", "must be a bool")
        if not isinstance(self.status, str) or not self.status:
            _fail("status", "must be a non-empty string")


@dataclass(frozen=True)
class DecisionThresholds:
    """Calibrated thresholds plus the settings they were fit under.

    ``tau_rate`` may be ``math.inf`` when no finite threshold accepts any
    record (the accept-nothing sentinel).  ``tau_05`` is always finite.
    """

    tau_rate: float
    tau_05: float
    target_rate: float
    calibration_size: int

    def __post_init__(self) -> None:
        tau_rate = float(self.tau_rate)
        if math.isnan(tau_rate):
            _fail("tau_rate", "must not be NaN")
        object.__setattr__(self, "tau_rate", tau_rate)
        object.__setattr__(self, "tau_05", _check_finite("tau_05", self.tau_05))
        rate = float(self.target_rate)
        if not (math.isfinite(rate) and 0.0 < rate < 1.0):
            _fail("target_rate", f"must lie strictly in (0, 1), got {rate!r}")
        object.__setattr__(self, "target_rate", rate)
        if not isinstance(self.calibration_size, int) or self.calibration_size < 1:
            _fail("calibration_size", f"must be an integer >= 1, got {self.calibration_size!r}")


@dataclass(frozen=True)
class GaussianPosterior:
    """Gaussian belief over the latent quality of one submission."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", _check_finite("mean", self.mean))
        object.__setattr__(self, "variance", _check_finite("variance", self.variance))
        if self.variance <= 0:
            _fail("variance", f"must be > 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary-detection outcome counts."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                _fail(name, f"must be an integer >= 0, got {value!r}")
        if self.total < 1:
            _fail("tp", "counts must sum to at least 1")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn
