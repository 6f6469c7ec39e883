"""Reviewer weights and bound inputs: the two value types the reliability bounds take.

``ReviewerWeights``, ``BoundInputs`` and ``left_sum``, the left-to-right
float sum the weights are checked with.  This module imports only
``dataclasses`` and ``rules``, so ``bound tail`` and ``bound margin``,
which build one ``BoundInputs``, load no numpy.  ``core`` re-exports
these names and ``objects`` uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .rules import _fail, integer, non_negative

__all__ = ["ReviewerWeights", "BoundInputs", "left_sum"]

_WEIGHT_SUM_TOL = 1e-9


def left_sum(values: Iterable[float]) -> float:
    """Float sum added left to right, like ``tables.left_sums`` (not 3.12's ``sum``)."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class ReviewerWeights:
    """Non-negative reviewer weights; stored renormalized to sum exactly 1.

    Inputs whose sum deviates from 1 by more than 1e-9 are rejected rather
    than silently rescaled.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = non_negative.each("weights", self.weights, non_empty=True)
        total = left_sum(weights)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            _fail("weights", f"must sum to 1 within {_WEIGHT_SUM_TOL}, got sum {total!r}")
        object.__setattr__(self, "weights", tuple(w / total for w in weights))

    @classmethod
    def uniform(cls, count: int) -> "ReviewerWeights":
        count = integer("count", count, 1)
        return cls((1.0 / count,) * count)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class BoundInputs:
    """Sufficient statistics for the consensus tail bound.

    ``sigma_w_sq`` is the weighted consensus variance proxy and ``c_max``
    the largest single-review influence on the consensus score.
    """

    sigma_w_sq: float
    c_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_w_sq", non_negative("sigma_w_sq", self.sigma_w_sq))
        object.__setattr__(self, "c_max", non_negative("c_max", self.c_max))
