"""Calibrated multi-reviewer decision stack.

Aggregates rubric review panels into consensus scores, bounds the
misclassification risk of thresholded decisions, calibrates thresholds
against human decisions, makes Bayesian credible accept/reject calls,
and validates the whole stack with a deterministic Monte-Carlo harness.

``import panelcal`` loads no submodule: each one is imported on first
attribute access (``panelcal.simulate``), so a command pays only for the
modules it runs.
"""

import importlib

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
