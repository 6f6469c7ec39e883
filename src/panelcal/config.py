"""The config boundary: one key spec for every config and thresholds file.

``SPEC`` (``--config``) and ``THRESHOLDS`` (``thresholds.json``) map each
key to its node and default, or to ``REQUIRED``.  Leaf parsers check JSON
types strictly: a string stays a string, and a number leaf is a
``rules`` number rule worded without a field (``rules.json_number``: an
int or a float but not a bool).  A range that the library checks is
stated there only, and ``Section.build`` runs it; ``rename`` words
its ``field: message`` under the key path, flag or ``config: key`` that
the field is given as.  A JSON null
is the same as leaving the key out.  ``load`` rejects a key that no
command knows, naming the nearest known one, and parses only the keys the
calling command reads, so one config file can serve several commands.
Each ``Section`` builds its type (``core``'s ``RubricSchema``,
``ScoringFunctional`` and ``DecisionThresholds``, ``simulate``'s
``NoiseProfile`` and cohort types, ``bayes``'s ``GaussianPosterior``)
through a builder that imports the type's module only when its key is
parsed, so ``config`` itself imports only ``rules``.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple

from . import rules
from .rules import RecordError

if TYPE_CHECKING:
    from .core import DecisionThresholds, RubricSchema, ScoringFunctional
    from .simulate import CohortSpec, LatentDistribution, NoiseProfile, PopulationSettings

__all__ = ["REQUIRED", "Section", "ReviewerMap", "SPEC", "THRESHOLDS", "parse", "key_name", "error", "rename",
           "load", "load_thresholds"]

REQUIRED = object()  # the default of a key that must be given


# ---------------------------------------------------------------- leaves


def _rule(rule: rules.NumberRule) -> Callable[[Any], float]:
    """A leaf parser: the library's number ``rule``, worded without a field."""
    return functools.partial(rule, "")


number, finite, positive, non_negative, probability = map(
    _rule, (rules.number, rules.finite, rules.positive, rules.non_negative, rules.open_unit))


@functools.cache  # one parser per minimum, so equal leaves of a spec are one object
def integer(minimum: int | None = None) -> Callable[[Any], int]:
    """A leaf parser: the library's integer rule (no bool) of at least ``minimum``, worded without a field."""
    return functools.partial(rules.integer, "", minimum=minimum)


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
strings = _list(string, "strings")


def threshold(value: Any) -> str | float:
    """A leaf parser: ``"tau_rate"``, ``"tau_05"`` or a number."""
    if not isinstance(value, str):
        return number(value)
    if value not in ("tau_rate", "tau_05"):
        raise ValueError(f"must be 'tau_rate', 'tau_05', or a number, got {value!r}")
    return value


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
            keyed = rename(exc, {key: _at(path, key) for key in node.keys})
            raise (_fail(path, str(exc)) if keyed is exc else keyed) from None
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
# Each builder imports its type only when its key is parsed: config loads
# neither ``core`` nor ``simulate`` nor ``bayes`` itself, so a command
# loads the module of a type only if it reads a key of that type.


def _schema(**keys: Any) -> RubricSchema:
    from .core import RubricSchema

    return RubricSchema(**keys)


def _functional(**keys: Any) -> ScoringFunctional:
    from .core import ScoringFunctional

    return ScoringFunctional(**keys)


def _thresholds(stratified: bool, seed: int | None, **fields: Any) -> DecisionThresholds:
    from .core import DecisionThresholds

    return DecisionThresholds(**fields)


def _noise(**keys: Any) -> NoiseProfile:
    from .simulate import NoiseProfile

    return NoiseProfile(**keys)


def _cohort(**keys: Any) -> CohortSpec:
    from .simulate import CohortSpec

    return CohortSpec(**keys)


def _population(size: int, link_midpoint: float, link_slope: float, **cohort: Any) -> PopulationSettings:
    from .simulate import PopulationSettings

    try:
        spec = _cohort(n_papers=size, **cohort)
    except ValueError as exc:  # the cohort calls the size n_papers
        raise rename(exc, {"n_papers": "size"}) from None
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
    try:
        return LatentDistribution(kind, *(params[name] for name in names))
    except ValueError as exc:
        raise rename(exc, dict(zip(("param_a", "param_b"), names))) from None


def _margins(**settings: Any) -> dict[str, Any]:
    from .experiments import margin_bin_edges

    margin_bin_edges(settings["bin_edges"])
    return settings


def _stratify(**settings: Any) -> dict[str, Any]:
    from .strata import vocabulary  # only a config with a stratify object loads strata

    rules.increasing_edges("bin_edges", settings["bin_edges"])
    vocabulary(settings["status_vocabulary"])
    return settings


def _bayes(prior_mean: float, prior_variance: float, **settings: Any) -> dict[str, Any]:
    from .bayes import GaussianPosterior

    return {"prior": GaussianPosterior(prior_mean, prior_variance), **settings}


LATENT = Section({"kind": (string, REQUIRED), **dict.fromkeys(("lo", "hi", "mean", "sd"), (number, None))},
                 _latent)
NOISE = Section({"per_reviewer_variance": (numbers, REQUIRED), "scalar_bounds": (pair, REQUIRED)}, _noise)
_COHORT_KEYS = {"m_reviewers": (integer(), REQUIRED), "latent": (LATENT, REQUIRED),
                "noise": (NOISE, REQUIRED), "clip_mode": (string, "clip"), "seed": (integer(0), 0)}
COHORT = Section({"n_papers": (integer(), REQUIRED), **_COHORT_KEYS}, _cohort)
# the cohort keys with size for n_papers, plus the logistic accept link
POPULATION = Section({"size": (integer(), REQUIRED), **_COHORT_KEYS, "link_midpoint": (number, REQUIRED),
                      "link_slope": (number, REQUIRED)}, _population)
SCHEMA = Section({"criteria_count": (integer(), REQUIRED), "bounds": (_list(pair, "[lo, hi] pairs"), REQUIRED),
                  "overall_index": (integer(), None)}, _schema)
FUNCTIONAL = Section({"kind": (string, REQUIRED), "coefficients": (numbers, None)}, _functional)
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
                         "bin_edges": (numbers, (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5))}, _margins), {}),
    "threshold_error": (Section({"population": (POPULATION, _POPULATION),
                                 "n_cal_grid": (integers, (50, 100, 200, 400, 800)),
                                 "replicates": (integer(2), 200), "seed": (integer(0), 11)}), {}),
    "variance": (Section({"spec": (COHORT, _COHORT), "m_grid": (integers, (1, 2, 3))}), {}),
})
SPEC = Section({
    # calibrate
    "target_rate": (probability, REQUIRED),
    "delta": (probability, 0.05),
    "stratify": (Section({"n_cal": (integer(1), REQUIRED), "bin_edges": (numbers, REQUIRED),
                          "status_vocabulary": (strings, REQUIRED)}, _stratify), None),
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
}, _thresholds)


def key_name(path: str) -> str:
    """How an error names the config key at the dotted ``path``: after ``config: ``."""
    return f"config: {path}"


def error(message: str) -> RecordError:
    """The error of a ``--config`` file: ``message``, which names the key path, after ``config: ``."""
    return RecordError(key_name(message))


def rename(exc: ValueError, names: Mapping[str, str]) -> ValueError:
    """``exc``, a library ``ValueError("field: message")``, as ``RecordError("names[field]: message")``.

    An index after the field (``bounds[0]``) is kept.  An error whose field
    ``names`` does not hold is returned as it is.
    """
    field, _, message = str(exc).partition(": ")
    name, bracket, index = field.partition("[")
    if name not in names:
        return exc
    return RecordError(f"{names[name]}{bracket}{index}: {message}")


def _read(path: str) -> dict[str, Any]:
    """The JSON object in the file at ``path``; the file reader is imported only to read one."""
    from .reader import load_config

    return load_config(path)


def load(path: str | None, *keys: str) -> list[Any]:
    """The values of the dotted ``keys`` in the config file at ``path`` (none: ``{}``).

    Every key in the file must be one some command knows.  Only ``keys``
    are parsed: a key that another command reads is not checked here.
    """
    data = {} if path is None else _read(path)
    try:
        _check_names(SPEC, data)
        return [_field(SPEC, data, key, "") for key in keys]
    except RecordError as exc:
        raise error(str(exc)) from None


def load_thresholds(path: str) -> DecisionThresholds:
    """A ``thresholds.json`` written by calibrate; errors name the file and the key."""
    data = _read(path)
    try:
        return parse(THRESHOLDS, data)
    except RecordError as exc:
        raise RecordError(f"{path}: {exc}") from None
