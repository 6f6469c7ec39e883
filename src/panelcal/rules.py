"""The exit-code errors, the number rules and the sequence rule, with no numpy and no dataclasses.

``RecordError`` (exit 2) and ``ThresholdUnreachableError`` (exit 3) are
the two errors the command line maps to exit codes.  The float rules
(``number``, ``finite``, ``not_nan``, ``positive``, ``non_negative``,
``open_unit``, ``unit``), the edge rule (``increasing_edges``) and the
integer rule (``integer``) are the only statements of a number rule in
the package: the library checks its number arguments with them, and
``config``'s number leaves are the same rules worded without a field;
``text`` is the one string rule, and ``sequence`` the one shape rule of
a sequence argument (not a bare value, non-empty, N entries), which the
number rules run on their sequences.  Every rule raises only ``ValueError``.
``json_number`` converts a number and ``numbers`` an array of them, for
the loaders, the rules and every array argument.  ``core`` re-exports
``__all__``, so ``bound`` loads neither ``core``, ``dataclasses`` nor numpy.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RecordError",
    "ThresholdUnreachableError",
    "NumberRule",
    "number",
    "finite",
    "not_nan",
    "positive",
    "non_negative",
    "open_unit",
    "unit",
    "sequence",
    "numbers",
    "increasing_edges",
    "integer",
    "text",
]


class RecordError(ValueError):
    """Malformed input file or config; the message names the file and line or the key path."""


class ThresholdUnreachableError(ValueError):
    """The fitted tail curve never reaches the requested level."""


def _fail(field: str, message: str) -> None:
    raise ValueError(f"{field}: {message}" if field else message)


class NumberRule:
    """A check of one number: ``rule(field, value)`` returns ``json_number(value)`` or raises
    ``ValueError("field: must <requirement>, got <value>")``; a number shows as its float, anything
    else as it was given.  An empty ``field`` words the message alone, as a config leaf does."""

    __slots__ = ("requirement", "ok")

    def __init__(self, requirement: str, ok: Callable[[float], bool]) -> None:
        self.requirement = requirement
        self.ok = ok

    def __call__(self, field: str, value: Any) -> float:
        number = json_number(value)
        if number is None or not self.ok(number):
            _fail(field, f"must {self.requirement}, got {value if number is None else number!r}")
        return number

    def each(self, field: str, values: Iterable[Any], length: int | None = None,
             non_empty: bool = False) -> tuple[float, ...]:
        """Every value of ``sequence(field, values, "numbers", ...)`` as a float, each checked in order as
        ``field[k]`` after the shape."""
        values = sequence(field, values, "numbers", length, non_empty)
        return tuple(self(f"{field}[{k}]", value) for k, value in enumerate(values))


def sequence(field: str, values: Any, of: str, length: int | None = None, non_empty: bool = False) -> Any:
    """``values`` if it is a sequence (an iterator or a set is taken once, as a tuple), or ``ValueError``:

    * ``field: must be a sequence of <of>`` for a bare value, a ``str`` or ``bytes``, or a 0-d array;
    * ``field: expected <length> entries, got <n>`` where a ``length`` is given;
    * ``field: must be non-empty`` where ``non_empty`` is asked.

    The checks are O(1): a list, tuple or array is returned as it is, with no copy.
    """
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__") or getattr(values, "ndim", None) == 0:
        _fail(field, f"must be a sequence of {of}")
    if not (hasattr(values, "__len__") and hasattr(values, "__getitem__")):
        values = tuple(values)
    if length is not None and len(values) != length:
        _fail(field, f"expected {length} entries, got {len(values)}")
    if non_empty and not len(values):
        _fail(field, "must be non-empty")
    return values


number = NumberRule("be a number", lambda x: True)
finite = NumberRule("be finite", math.isfinite)
not_nan = NumberRule("not be NaN", lambda x: x == x)
positive = NumberRule("be finite and > 0", lambda x: math.isfinite(x) and x > 0)
non_negative = NumberRule("be finite and >= 0", lambda x: math.isfinite(x) and x >= 0)
open_unit = NumberRule("lie strictly in (0, 1)", lambda x: 0.0 < x < 1.0)
unit = NumberRule("lie in [0, 1]", lambda x: 0.0 <= x <= 1.0)


def numbers(field: str, values: Iterable[Any], non_empty: bool = False) -> np.ndarray:
    """``number.each`` as a float ndarray: a 1-d int or float ndarray by its dtype, a list or tuple of plain ints
    and floats by one type pass and one ``np.array``, anything else entry by entry; numpy is imported only here.
    The fast paths come first, and the shape rule runs on the array they made."""
    import numpy as np

    array = None
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf":
        array = values.astype(float, copy=False)
    elif isinstance(values, (list, tuple)) and set(map(type, values)) <= {int, float}:
        try:
            array = np.array(values, dtype=float)
        except OverflowError:
            pass
    if array is None:
        return np.array(number.each(field, values, non_empty=non_empty), dtype=float)
    return sequence(field, array, "numbers", non_empty=non_empty)


def increasing_edges(field: str, values: Iterable[Any]) -> tuple[float, ...]:
    """``values`` as bin edges: at least 2 finite numbers, strictly increasing, as floats."""
    values = sequence(field, values, "numbers")
    if len(values) < 2:
        _fail(field, f"need at least 2 edges, got {len(values)}")
    checked = finite.each(field, values)
    if any(a >= b for a, b in zip(checked, checked[1:])):
        _fail(field, f"must be strictly increasing, got {list(checked)}")
    return checked


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


def text(field: str, value: Any) -> None:
    """``ValueError("field: must be a non-empty string")`` unless ``value`` is a non-empty ``str``."""
    if not isinstance(value, str) or not value:
        _fail(field, "must be a non-empty string")


def json_number(value: Any) -> float | None:
    """A number as a float (a huge integer is infinite); None for anything else.

    A number is a JSON number, an ``int`` or a ``float`` but not a bool, or
    a numpy integer or float scalar.  A string, a bool and numpy's bool are
    not numbers.
    """
    if isinstance(value, bool) or not (isinstance(value, (int, float)) or _numpy_number(value)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _numpy_number(value: Any) -> bool:
    """Whether ``value`` is a numpy integer or float scalar (or 0-d array), told without numpy."""
    kind = getattr(getattr(value, "dtype", None), "kind", None)
    return kind in ("i", "u", "f") and getattr(value, "shape", None) == ()
