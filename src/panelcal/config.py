"""The config boundary: one key spec for every config and thresholds file.

``SPEC`` (``--config``) and ``THRESHOLDS`` (``thresholds.json``) map each
key to its node and default, or to ``REQUIRED``.  Leaf parsers check JSON
types strictly: a number is an int or a float but not a bool, and a string
stays a string.  A range that a domain type's ``__post_init__`` checks is
not declared again; its error is reported under the key path, renamed
where the type's field has another name than the key.  A JSON null
is the same as leaving the key out.  ``load`` rejects a key that no
command knows, naming the nearest known one, and parses only the keys the
calling command reads, so one config file can serve several commands.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from . import records
from .core import (
    DecisionThresholds,
    GaussianPosterior,
    NoiseProfile,
    RecordError,
    RubricSchema,
    ScoringFunctional,
)

if TYPE_CHECKING:
    from .simulate import CohortSpec, LatentDistribution, PopulationSettings

__all__ = ["REQUIRED", "Section", "ReviewerMap", "SPEC", "THRESHOLDS", "parse", "load",
           "load_thresholds"]

REQUIRED = object()  # the default of a key that must be given


# ---------------------------------------------------------------- leaves


def _float(value: Any) -> float | None:
    """A JSON number as a float (a huge integer is infinite); None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _number(requirement: str, ok: Callable[[float], bool]) -> Callable[[Any], float]:
    """A leaf parser: a JSON number that ``ok`` accepts, as a float."""

    def parse(value: Any) -> float:
        number = _float(value)
        if number is None or not ok(number):
            raise ValueError(f"must {requirement}, got {value!r}")
        return number

    return parse


number = _number("be a number", lambda x: True)
finite = _number("be a finite number", math.isfinite)
positive = _number("be a finite number > 0", lambda x: math.isfinite(x) and x > 0)
non_negative = _number("be a finite number >= 0", lambda x: math.isfinite(x) and x >= 0)
probability = _number("lie strictly in (0, 1)", lambda x: 0.0 < x < 1.0)


@functools.cache  # one parser per minimum, so equal leaves of a spec are one object
def integer(minimum: int | None = None) -> Callable[[Any], int]:
    """A leaf parser: a JSON integer (not a bool) of at least ``minimum``."""
    floor = -math.inf if minimum is None else minimum
    wanted = "an integer" if minimum is None else f"an integer >= {minimum}"

    def parse(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            raise ValueError(f"must be {wanted}, got {value!r}")
        return value

    return parse


def _typed(kind: type, wanted: str) -> Callable[[Any], Any]:
    """A leaf parser: a JSON value of Python type ``kind``."""

    def parse(value: Any) -> Any:
        if not isinstance(value, kind):
            raise ValueError(f"must be {wanted}, got {value!r}")
        return value

    return parse


string = _typed(str, "a string")
boolean = _typed(bool, "true or false")


def _list(
    item: Callable[[Any], Any], what: str, min_length: int = 0, max_length: float = math.inf
) -> Callable[[Any], tuple]:
    """A leaf parser: a JSON list of ``item`` values, as a tuple."""

    def parse(value: Any) -> tuple:
        if isinstance(value, list) and min_length <= len(value) <= max_length:
            try:
                return tuple(map(item, value))
            except ValueError:
                pass
        raise ValueError(f"must be a list of {what}, got {value!r}")

    return parse


integers = _list(integer(), "integers")
numbers = _list(number, "numbers")
pair = _list(number, "2 numbers", 2, 2)


def bin_edges(value: Any) -> tuple[float, ...]:
    """A leaf parser: at least two finite, strictly increasing numbers."""
    edges = _list(finite, "at least 2 numbers", 2)(value)
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"must be strictly increasing, got {value!r}")
    return edges


def vocabulary(value: Any) -> tuple[str, ...]:
    """A leaf parser: a list of distinct strings."""
    words = _list(string, "strings")(value)
    if len(set(words)) != len(words):
        raise ValueError("entries must be unique")
    return words


_threshold_number = _number("be 'tau_rate', 'tau_05', or a number", lambda x: True)


def threshold(value: Any) -> str | float:
    """A leaf parser: ``"tau_rate"``, ``"tau_05"`` or a number."""
    return value if value in ("tau_rate", "tau_05") else _threshold_number(value)


# ---------------------------------------------------------------- nodes and walk


class Section(NamedTuple):
    """A JSON object with fixed ``keys``, ``{key: (node, default)}``, built by ``build``.

    A dict default is parsed like a given value; any other is used as it is.
    """

    keys: Mapping[str, tuple[Any, Any]]
    build: Callable[..., Any] = dict


class ReviewerMap(NamedTuple):
    """A JSON object from reviewer ids to ``value`` leaves, or one of ``words``."""

    value: Callable[[Any], Any]
    words: tuple[str, ...] = ()


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fail(path: str, message: str) -> RecordError:
    return RecordError(f"{path}: {message}" if path else message)


def _object(value: Any, path: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise _fail(path, "must be an object")
    return value


def _check_names(node: Any, data: Any, path: str = "") -> None:
    """Reject the first non-null key in ``data`` that ``node`` does not declare, at any depth."""
    if isinstance(node, Section) and isinstance(data, dict):
        for key, value in data.items():
            if key in node.keys:
                _check_names(node.keys[key][0], value, _at(path, key))
            elif value is not None:
                import difflib  # only on this error path: importing it costs every run's start-up

                close = difflib.get_close_matches(key, list(node.keys), n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise _fail(_at(path, key), f"unknown key{hint}")


def _field(section: Section, data: Mapping[str, Any], key: str, path: str) -> Any:
    """``section``'s dotted ``key`` parsed from ``data``, none of its siblings parsed.

    An absent or null key takes its default.
    """
    key, dot, rest = key.partition(".")
    node, default = section.keys[key]
    where = _at(path, key)
    value = data.get(key)
    if dot:
        return _field(node, _object({} if value is None else value, where), rest, where)
    if value is None:
        if default is REQUIRED:
            raise _fail(where, "required")
        if not isinstance(default, dict):
            return default
        value = default
    return parse(node, value, where)


def parse(node: Any, value: Any, path: str = "") -> Any:
    """``value`` parsed as ``node``; a ``RecordError`` names the key path."""
    if isinstance(node, Section):
        _check_names(node, _object(value, path), path)
        values = {key: _field(node, value, key, path) for key in node.keys}
        try:
            return node.build(**values)
        except ValueError as exc:
            # a domain type names the field first: "bounds[0]: ..."
            key, _, message = str(exc).partition(": ")
            if key.partition("[")[0] in node.keys:
                raise _fail(_at(path, key), message) from None
            raise _fail(path, str(exc)) from None
    if isinstance(node, ReviewerMap):
        if value in node.words:
            return value
        if not isinstance(value, dict):
            words = "".join(f"{word!r}, " for word in node.words)
            raise _fail(path, f"must be {words}{'or ' if words else ''}an object")
        return {name: parse(node.value, v, _at(path, name)) for name, v in value.items()}
    try:
        return node(value)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


# ---------------------------------------------------------------- spec and files
# The simulate builders import ``simulate`` only when a ``simulate.*`` key
# is parsed, so the other commands never load it.


def _cohort(**keys: Any) -> CohortSpec:
    from .simulate import CohortSpec

    return CohortSpec(**keys)


def _population(size: int, link_midpoint: float, link_slope: float, **cohort: Any) -> PopulationSettings:
    from .simulate import PopulationSettings

    try:
        spec = _cohort(n_papers=size, **cohort)
    except ValueError as exc:  # the cohort calls the size n_papers
        field, _, message = str(exc).partition(": ")
        raise ValueError(f"size: {message}" if field == "n_papers" else str(exc)) from None
    return PopulationSettings(spec, link_midpoint, link_slope)


def _latent(kind: str, **params: float | None) -> LatentDistribution:
    """A uniform latent takes ``lo`` and ``hi``; a gaussian one takes ``mean`` and ``sd``."""
    from .simulate import LatentDistribution

    names = {"uniform": ("lo", "hi"), "gaussian": ("mean", "sd")}.get(kind)
    if names is None:
        raise ValueError(f"kind: must be 'uniform' or 'gaussian', got {kind!r}")
    for name, value in params.items():
        if (value is None) == (name in names):
            raise ValueError(f"{name}: {'required' if value is None else 'not a key'} of a {kind} latent")
    return LatentDistribution(kind, *(params[name] for name in names))


def _margins(**settings: Any) -> dict[str, Any]:
    edges = settings["bin_edges"]
    if edges[0] < 0:
        raise ValueError(f"bin_edges: margins are non-negative; first edge must be >= 0, got {list(edges)}")
    return settings


def _bayes(prior_mean: float, prior_variance: float, **settings: Any) -> dict[str, Any]:
    return {"prior": GaussianPosterior(prior_mean, prior_variance), **settings}


LATENT = Section({"kind": (string, REQUIRED), **dict.fromkeys(("lo", "hi", "mean", "sd"), (number, None))},
                 _latent)
NOISE = Section({"per_reviewer_variance": (numbers, REQUIRED), "scalar_bounds": (pair, REQUIRED)}, NoiseProfile)
_COHORT_KEYS = {"m_reviewers": (integer(), REQUIRED), "latent": (LATENT, REQUIRED),
                "noise": (NOISE, REQUIRED), "clip_mode": (string, "clip"), "seed": (integer(0), 0)}
COHORT = Section({"n_papers": (integer(), REQUIRED), **_COHORT_KEYS}, _cohort)
# the cohort keys with size for n_papers, plus the logistic accept link
POPULATION = Section({"size": (integer(), REQUIRED), **_COHORT_KEYS, "link_midpoint": (number, REQUIRED),
                      "link_slope": (number, REQUIRED)}, _population)
SCHEMA = Section({"criteria_count": (integer(), REQUIRED), "bounds": (_list(pair, "[lo, hi] pairs"), REQUIRED),
                  "overall_index": (integer(), None)}, RubricSchema)
FUNCTIONAL = Section({"kind": (string, REQUIRED), "coefficients": (numbers, None)}, ScoringFunctional)
BAYES = Section({
    # declared, not left to GaussianPosterior, whose fields are mean and variance
    "prior_mean": (finite, REQUIRED),
    "prior_variance": (positive, REQUIRED),
    "alpha": (probability, 0.05),
    "threshold": (threshold, "tau_05"),
    "review_variances": (ReviewerMap(positive), {}),
    "solicit_variance": (positive, None),
}, _bayes)
# the frozen reference experiments
_COHORT = {"n_papers": 5000, "m_reviewers": 3, "latent": {"kind": "uniform", "lo": 4.0, "hi": 7.0},
           "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
           "seed": 20260819}
_POPULATION = {"size": 20000, "m_reviewers": 3, "latent": {"kind": "uniform", "lo": 2.0, "hi": 9.0},
               "noise": _COHORT["noise"], "seed": 7, "link_midpoint": 7.6, "link_slope": 2.5}
SIMULATE = Section({
    "margins": (Section({"spec": (COHORT, _COHORT), "m_grid": (integers, (1, 2, 3)),
                         "threshold": (finite, 5.5),
                         "bin_edges": (bin_edges, (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5))}, _margins), {}),
    "threshold_error": (Section({"population": (POPULATION, _POPULATION),
                                 "n_cal_grid": (integers, (50, 100, 200, 400, 800)),
                                 "replicates": (integer(2), 200), "seed": (integer(0), 11)}), {}),
    "variance": (Section({"spec": (COHORT, _COHORT), "m_grid": (integers, (1, 2, 3))}), {}),
})
SPEC = Section({
    # calibrate
    "target_rate": (probability, REQUIRED),
    "delta": (probability, 0.05),
    "stratify": (Section({"n_cal": (integer(1), REQUIRED), "bin_edges": (bin_edges, REQUIRED),
                          "status_vocabulary": (vocabulary, REQUIRED)}), None),
    # review and bayes
    "schema": (SCHEMA, None),
    "functional": (FUNCTIONAL, None),
    "weights": (ReviewerMap(non_negative, ("uniform", "gls")), "uniform"),
    "gls_variances": (ReviewerMap(positive), None),
    "bayes": (BAYES, REQUIRED),
    "simulate": (SIMULATE, {}),
})
THRESHOLDS = Section({
    "tau_rate": (number, REQUIRED),  # Infinity when no finite threshold meets the rate
    "tau_05": (number, REQUIRED),
    "target_rate": (number, REQUIRED),
    "calibration_size": (integer(), REQUIRED),
    "stratified": (boolean, False),
    "seed": (integer(0), None),
}, lambda stratified, seed, **fields: DecisionThresholds(**fields))


def load(path: str | None, *keys: str) -> list[Any]:
    """The values of the dotted ``keys`` in the config file at ``path`` (none: ``{}``).

    Every key in the file must be one some command knows.  Only ``keys``
    are parsed: a key that another command reads is not checked here.
    """
    data = {} if path is None else records.load_config(path)
    try:
        _check_names(SPEC, data)
        return [_field(SPEC, data, key, "") for key in keys]
    except RecordError as exc:
        raise RecordError(f"config: {exc}") from None


def load_thresholds(path: str) -> DecisionThresholds:
    """A ``thresholds.json`` written by calibrate; errors name the file and the key."""
    data = records.load_config(path)
    try:
        return parse(THRESHOLDS, data)
    except RecordError as exc:
        raise RecordError(f"{path}: {exc}") from None
