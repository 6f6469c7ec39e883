"""The value types read from config and thresholds files: rubric schema, scoring functional, thresholds.

``core`` defines ``RubricSchema``, ``ScoringFunctional`` and
``DecisionThresholds``.  Every type validates its invariants at
construction and raises ``ValueError`` with a message that names the
violated field.  All types are immutable.  ``panelcal.config`` builds
them from config and thresholds files, importing this module only when a
key that needs one is parsed, and reports their errors under the key
path.  The two errors the command line maps to exit codes,
``RecordError`` (2) and ``ThresholdUnreachableError`` (3), and the number
rules live in ``panelcal.rules``, which loads no numpy and no
``dataclasses``; ``core`` re-exports every name of its ``__all__``.

The other names of ``__all__`` are defined in the module that builds
them at run time, and ``core`` imports that module on first use of one:
``NoiseProfile`` in ``panelcal.simulate``, ``GaussianPosterior`` in
``panelcal.bayes``, ``ReviewerWeights``, ``BoundInputs`` and
``left_sum`` in ``panelcal.weights``, and the object layer
(``RubricVector``, ``ReviewRecord``, ``ReviewPanel``,
``CalibrationRecord`` and ``ConfusionCounts``) in ``panelcal.objects``.
So ``simulate threshold-error`` and ``detector-eval`` load no ``core``,
and no command loads ``objects``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _lazy, rules
from .rules import *  # noqa: F403 -- core re-exports every name of rules.__all__
from .rules import _fail

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
    "left_sum",
    *rules.__all__,
]

__getattr__, __dir__ = _lazy(__name__, {
    "objects": ("RubricVector", "ReviewRecord", "ReviewPanel", "CalibrationRecord", "ConfusionCounts"),
    "weights": ("ReviewerWeights", "BoundInputs", "left_sum"),
    "simulate": ("NoiseProfile",),
    "bayes": ("GaussianPosterior",),
})


@dataclass(frozen=True)
class RubricSchema:
    """Shape of a rubric: criteria count and per-criterion score bounds."""

    criteria_count: int
    bounds: tuple[tuple[float, float], ...]
    overall_index: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "criteria_count", integer("criteria_count", self.criteria_count, 1))
        pairs = sequence("bounds", self.bounds, "[lo, hi] pairs", self.criteria_count)
        bounds = tuple(finite.each(f"bounds[{k}]", pair, 2) for k, pair in enumerate(pairs))
        object.__setattr__(self, "bounds", bounds)
        for k, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                _fail(f"bounds[{k}]", f"lower bound must be strictly below upper, got ({lo}, {hi})")
        if self.overall_index is not None:
            object.__setattr__(self, "overall_index", integer("overall_index", self.overall_index))
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
            coeffs = finite.each("coefficients", self.coefficients, non_empty=True)
            object.__setattr__(self, "coefficients", coeffs)
            if not any(c != 0.0 for c in coeffs):
                _fail("coefficients", "must not be all zero")
        else:
            if self.coefficients is not None:
                _fail("coefficients", "must be absent for the overall_pick variant")

    @classmethod
    def linear(cls, coefficients: Sequence[float]) -> "ScoringFunctional":
        return cls("linear", coefficients)

    @classmethod
    def mean(cls, criteria_count: int) -> "ScoringFunctional":
        criteria_count = integer("criteria_count", criteria_count, 1)
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
        object.__setattr__(self, "tau_rate", not_nan("tau_rate", self.tau_rate))
        object.__setattr__(self, "tau_05", finite("tau_05", self.tau_05))
        object.__setattr__(self, "target_rate", open_unit("target_rate", self.target_rate))
        object.__setattr__(self, "calibration_size", integer("calibration_size", self.calibration_size, 1))
