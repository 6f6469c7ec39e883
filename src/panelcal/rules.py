"""The exit-code errors and the number rules, with no numpy and no dataclasses.

``RecordError`` (exit 2) and ``ThresholdUnreachableError`` (exit 3) are
the two errors the command line maps to exit codes.  The four float rules
(``finite``, ``positive``, ``non_negative``, ``open_unit``) and the
integer rule (``integer``) check the number arguments of ``core``,
``aggregate``, ``bayes``, ``bounds``, ``calibrate`` and ``simulate``, and
``config``'s integer leaves.  ``json_number`` is the JSON-number rule of
the record loaders and of ``config``'s number leaves.  ``core``
re-exports every name of ``__all__``, so ``bound``, which needs only
these, loads neither ``core`` nor ``dataclasses``.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Iterable

__all__ = [
    "RecordError",
    "ThresholdUnreachableError",
    "NumberRule",
    "finite",
    "positive",
    "non_negative",
    "open_unit",
    "integer",
]


class RecordError(ValueError):
    """Malformed input file or config; the message names the file and line or the key path."""


class ThresholdUnreachableError(ValueError):
    """The fitted tail curve never reaches the requested level."""


def _fail(field: str, message: str) -> None:
    raise ValueError(f"{field}: {message}" if field else message)


class NumberRule:
    """A check of one number: ``rule(field, value)`` returns ``float(value)`` or raises
    ``ValueError("field: must <requirement>, got <value as a float>")``."""

    __slots__ = ("requirement", "ok")

    def __init__(self, requirement: str, ok: Callable[[float], bool]) -> None:
        self.requirement = requirement
        self.ok = ok

    def __call__(self, field: str, value: float) -> float:
        value = float(value)
        if not self.ok(value):
            _fail(field, f"must {self.requirement}, got {value!r}")
        return value

    def each(self, field: str, values: Iterable[float]) -> tuple[float, ...]:
        """Every value as a float; all are converted before ``field[k]`` is checked."""
        values = tuple(map(float, values))
        for k, value in enumerate(values):
            self(f"{field}[{k}]", value)
        return values


finite = NumberRule("be finite", math.isfinite)
positive = NumberRule("be finite and > 0", lambda x: math.isfinite(x) and x > 0)
non_negative = NumberRule("be finite and >= 0", lambda x: math.isfinite(x) and x >= 0)
open_unit = NumberRule("lie strictly in (0, 1)", lambda x: 0.0 < x < 1.0)


def integer(field: str, value: Any, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as a plain ``int`` in [``minimum``, ``maximum``] (``None``: open; a maximum comes with a
    minimum), or ``ValueError("field: must be an integer[ >= minimum | in [minimum, maximum]], got <value>")``.
    A bool fails, whatever ``operator.index`` takes passes; an empty ``field`` words the message alone."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    low = -math.inf if minimum is None else minimum
    if number is None or not low <= number <= (math.inf if maximum is None else maximum):
        bound = "" if minimum is None else f" >= {minimum}" if maximum is None else f" in [{minimum}, {maximum}]"
        _fail(field, f"must be an integer{bound}, got {value!r}")
    return number


def json_number(value: Any) -> float | None:
    """A JSON number as a float (a huge integer is infinite); None for anything else, a bool included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
