"""Outside-in tracer: wraps panelcal's public functions from the benchmark.

Nothing in the program changes.  ``Tracer.install`` rebinds each wrapped
function in every ``panelcal`` namespace that holds it (``simulate`` binds
``tau05_from_scores`` by name, so patching ``calibrate`` alone would miss
the bootstrap) and each wrapped method on its class; ``uninstall`` puts the
originals back.

Timed wrappers keep a stack of child-time accumulators, so a span's self
time is its duration minus the time of the wrapped spans it called.  Spans
are aggregated in memory per (caller, callee) pair: calls, total and self
seconds.  The hot ``ReviewPanel`` lookups get count-only wrappers, whose
cost lands in their caller's self time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from functools import wraps
from typing import Any, Callable

ROOT_SPAN = "bench"

RATE_FNS = ("acpt", "icr_per_model", "icr_any", "conflict_rate", "detector_counts",
            "detector_metrics")
PANEL_FNS = ("icr_per_model", "icr_any", "conflict_rate", "detector_counts")
FORMAT_FNS = ("csv_text", "aligned_table", "format_percent", "rate_with_counts")
FIT_FNS = ("rate_matching_threshold", "empirical_acceptance", "tail_probability_points",
           "isotonic_fit", "tau_05", "fit_tau05")
RAISERS = ("tau_05", "tau05_from_scores")  # where ThresholdUnreachableError starts
# layer -> public functions with timed spans
TIMED = {
    "records": ("load_panel_records", "load_calibration_records", "load_config"),
    "aggregate": ("consensus_rubric", "score", "decide", "gls_weights"),
    "bayes": ("posterior_update", "acceptance_probability", "credible_robust",
              "solicit_worthwhile"),
    "metrics": RATE_FNS + FORMAT_FNS,
    "calibrate": FIT_FNS + ("tau05_from_scores",),
    "simulate": ("threshold_bootstrap", "synthetic_calibration_population", "generate_cohort"),
    "cli": ("main",),
}
VALIDATED = ("RubricVector", "ReviewRecord", "ReviewPanel", "ReviewerWeights",
             "CalibrationRecord", "GaussianPosterior")


class Tracer:
    """Aggregated spans and counts of one traced command."""

    def __init__(self) -> None:
        self.spans: dict[tuple[str, str], list[float]] = {}  # -> [calls, total_s, self_s]
        self.counts: Counter[str] = Counter()
        self._parents = [ROOT_SPAN]
        self._child_time = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []

    # -------------------------------------------------------- wrappers

    def _timed(self, name: str, fn: Callable, after=None, raises=None) -> Callable:
        parents, child_time, spans, counts = self._parents, self._child_time, self.spans, self.counts
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            parent = parents[-1]
            parents.append(name)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises):
                    counts["calibrate.unreachable"] += 1
                raise
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                parents.pop()
                child_time[-1] += elapsed
                span = spans.get((parent, name))
                if span is None:
                    span = spans[(parent, name)] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn: Callable, amount=None) -> Callable:
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1 if amount is None else amount(args)
            return fn(*args, **kwargs)

        return wrapper

    # -------------------------------------------------------- install

    def _rebind(self, original: Any, replacement: Any) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "panelcal" or name.startswith("panelcal.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _set(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self, panelcal: Any) -> None:
        """Wrap every traced function and method of the imported package.

        ``panelcal.cli`` must already be imported.
        """
        count_lines = lambda args, result: self.counts.update({"records.lines": len(result)})
        count_panels = lambda args, result: self.counts.update(
            {"metrics.panels_scanned": len(args[0])})
        for layer, names in TIMED.items():
            module = getattr(panelcal, layer)
            for fn_name in names:
                after = raises = None
                if fn_name in ("load_panel_records", "load_calibration_records"):
                    after = count_lines
                elif fn_name in PANEL_FNS:
                    after = count_panels
                if fn_name in RAISERS:
                    raises = panelcal.calibrate.ThresholdUnreachableError
                original = getattr(module, fn_name)
                self._rebind(original, self._timed(f"{layer}.{fn_name}", original, after, raises))

        core = panelcal.core
        for cls_name in VALIDATED:
            cls = getattr(core, cls_name)
            self._set(cls, "__post_init__",
                      self._timed(f"core.{cls_name}.__post_init__", cls.__post_init__))
        panel = core.ReviewPanel
        self._set(panel, "validate_schema",
                  self._timed("core.ReviewPanel.validate_schema", panel.validate_schema))
        for prop in ("reviewer_ids", "any_flag"):
            fget = vars(panel)[prop].fget
            self._set(panel, prop, property(self._counted("core.panel_lookups", fget)))
        self._set(panel, "review_by", self._counted("core.panel_lookups", panel.review_by))

        cli = panelcal.cli
        self._rebind(cli._sha256_file,
                     self._counted("cli.io_bytes", cli._sha256_file,
                                   amount=lambda args: os.path.getsize(args[0])))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -------------------------------------------------------- summary

    def by_name(self) -> dict[str, list[float]]:
        """Spans merged over callers: name -> [calls, total_s, self_s]."""
        merged: dict[str, list[float]] = {}
        for (_, name), (calls, total, own) in self.spans.items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += own
        return merged

    def layer_metrics(self, panels: int) -> dict[str, float]:
        """Per-layer metrics of one traced command (unprefixed names)."""
        spans = self.by_name()

        def total(names, column):
            return sum(spans.get(n, (0, 0.0, 0.0))[column] for n in names)

        def layer(prefix):
            return [n for n in spans if n.startswith(prefix + ".")]

        calls, self_s = 0, 2
        core_objects = [f"core.{c}.__post_init__" for c in VALIDATED]
        lookups = self.counts["core.panel_lookups"]
        return {
            "records.load_s": total(layer("records"), self_s),
            "records.lines": self.counts["records.lines"],
            "core.objects": total(core_objects, calls),
            "core.validate_s": total(layer("core"), self_s),
            "core.panel_lookups": lookups,
            "core.lookups_per_panel": lookups / panels,
            "aggregate.calls": total(layer("aggregate"), calls),
            "aggregate.self_s": total(layer("aggregate"), self_s),
            "bayes.calls": total(layer("bayes"), calls),
            "bayes.self_s": total(layer("bayes"), self_s),
            "metrics.rate_s": total([f"metrics.{n}" for n in RATE_FNS], self_s),
            "metrics.panels_scanned": self.counts["metrics.panels_scanned"],
            "metrics.format_s": total([f"metrics.{n}" for n in FORMAT_FNS], self_s),
            "calibrate.fit_s": total([f"calibrate.{n}" for n in FIT_FNS], self_s),
            "calibrate.tau05_calls": total(["calibrate.tau05_from_scores"], calls),
            "calibrate.tau05_s": total(["calibrate.tau05_from_scores"], self_s),
            "calibrate.unreachable": self.counts["calibrate.unreachable"],
            "simulate.bootstrap_self_s": total(["simulate.threshold_bootstrap"], self_s),
            "simulate.population_s": total(["simulate.synthetic_calibration_population",
                                            "simulate.generate_cohort"], self_s),
            "cli.self_s": total(["cli.main"], self_s),
            "cli.io_bytes": self.counts["cli.io_bytes"],
        }

    def dump(self) -> dict:
        """Aggregated spans and counts, for the trace file."""
        return {
            "spans": [
                {"parent": parent, "name": name, "calls": int(calls),
                 "total_s": total, "self_s": own}
                for (parent, name), (calls, total, own) in sorted(self.spans.items())
            ],
            "counts": dict(self.counts),
        }
