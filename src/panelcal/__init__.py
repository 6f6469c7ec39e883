"""Calibrated multi-reviewer decision stack.

Aggregates rubric review panels into consensus scores, bounds the
misclassification risk of thresholded decisions, calibrates thresholds
against human decisions, makes Bayesian credible accept/reject calls,
and validates the whole stack with a deterministic Monte-Carlo harness.

``import panelcal`` loads no submodule: each one is imported on first
attribute access (``panelcal.simulate``), so a command pays only for the
modules it runs.  ``core``, ``aggregate``, ``records``, ``calibrate`` and
``simulate`` export names defined in modules of their own the same way
(``_lazy``).
"""

import importlib
import sys

__version__ = "0.1.0"

__all__ = [
    "aggregate",
    "bayes",
    "bounds",
    "calibrate",
    "core",
    "metrics",
    "records",
    "simulate",
    "__version__",
]

_SUBMODULES = frozenset(__all__) - {"__version__"} | {"cli", "config"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES)


def _lazy(module: str, homes: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``module``, which exports the names of ``homes``.

    ``homes`` maps a submodule to the names it defines.  Each name is
    imported from its submodule on first access and kept in ``module``.
    Any other name, a dunder such as ``__path__`` included, raises
    AttributeError and imports nothing.
    """
    home = {name: submodule for submodule, names in homes.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{__name__}.{home[name]}"), name)
        setattr(sys.modules[module], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[module])) | set(home))

    return __getattr__, __dir__
