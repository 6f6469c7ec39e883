"""Batch command-line interface.

Subcommands:

* ``calibrate``      fit thresholds against a human-labeled record pool
* ``review``         score panels and report corpus metrics
* ``bayes``          credible accept/reject calls per panel
* ``detector-eval``  flag-vs-label detection metrics
* ``simulate``       Monte-Carlo experiments (margins, threshold-error, variance)
* ``bound``          print one bound value (tail, margin, scalar, dkw, tau05)

Every data-producing run that completes writes into a fresh directory
under ``--out``: its outputs, then a ``manifest.json`` (command, seed,
input and output digests, UTC timestamps); nothing is ever overwritten.
A command that stops on an error creates no directory.  Exit codes:
0 success, 2 input or config error, 3 calibration infeasible, 4
simulation property-check failure (its run directory is still written).

This module holds the parser, the run directory and ``bound``, and
imports only the standard library and ``core``.  The data commands live
in ``cli_calibrate``, ``cli_panels`` and ``cli_simulate``, each imported
only when its command runs, so a command loads just the modules it uses
(``bound`` loads no numpy).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .core import BoundInputs, RecordError, ThresholdUnreachableError

__all__ = ["RunManifest", "build_parser", "main", "run"]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------- manifest


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run directory, written as ``manifest.json``."""

    command: str
    tool_version: str
    started_at: str
    finished_at: str | None
    seed: int | None
    config_digest: str | None
    input_digests: dict[str, str]
    output_digests: dict[str, str]


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Run:
    """One run's manifest and outputs, kept in memory until ``finish`` writes them."""

    def __init__(
        self,
        out_base: str,
        command: str,
        seed: int | None,
        config_path: str | None,
        input_paths: Sequence[str],
    ) -> None:
        input_digests = {str(p): _sha256_file(Path(p)) for p in input_paths}
        config_digest = None if config_path is None else _sha256_file(Path(config_path))
        ident = hashlib.sha256(
            json.dumps(
                [command, seed, config_digest, sorted(input_digests.items())],
                sort_keys=True,
            ).encode()
        ).hexdigest()[:8]
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        self.out_base = Path(out_base)
        self.name = f"{command}-{stamp}-{ident}"
        self.outputs: dict[str, str] = {}
        self.manifest = RunManifest(
            command=command,
            tool_version=__version__,
            started_at=_utc_now(),
            finished_at=None,
            seed=seed,
            config_digest=config_digest,
            input_digests=input_digests,
            output_digests={},
        )

    def write(self, name: str, text: str) -> None:
        if name in self.outputs:
            raise RuntimeError(f"refusing to overwrite {name}")
        self.outputs[name] = text

    def finish(self) -> None:
        """Create the run directory, write the outputs, then the manifest."""
        self.out_base.mkdir(parents=True, exist_ok=True)
        run_dir = self.out_base / self.name
        suffix = 1
        while run_dir.exists():
            suffix += 1
            run_dir = self.out_base / f"{self.name}-{suffix}"
        run_dir.mkdir()
        for name, text in self.outputs.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        manifest = replace(
            self.manifest,
            finished_at=_utc_now(),
            output_digests={name: _sha256_file(run_dir / name) for name in sorted(self.outputs)},
        )
        text = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
        (run_dir / "manifest.json").write_text(text, encoding="utf-8")
        print(f"run directory: {run_dir}")


# ---------------------------------------------------------------- config


def _config_error(message: str) -> RecordError:
    return RecordError(f"config: {message}")


# ---------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    if args.bound_kind == "tail":
        value = bounds.tail_bound(
            args.t, BoundInputs(sigma_w_sq=args.sigma_w_sq, c_max=args.c_max)
        )
    elif args.bound_kind == "margin":
        value = bounds.margin_misclassification_bound(
            args.gamma, BoundInputs(sigma_w_sq=args.sigma_w_sq, c_max=args.c_max)
        )
    elif args.bound_kind == "scalar":
        value = bounds.scalar_uniform_bound(args.m, args.gamma, args.sigma_sq, args.range_width)
    elif args.bound_kind == "dkw":
        value = bounds.dkw_bound(args.n_cal, args.delta)
    else:
        value = bounds.tau05_error_bound(args.eps_pi, args.c_min, args.flat_width)
    print(f"{value:.6g}")
    return 0


# ---------------------------------------------------------------- parser


def _int_flag(minimum: int) -> Callable[[str], int]:
    """argparse type of an integer flag (``--seed``, ``--replicates``): at least ``minimum``."""
    wanted = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"

    def parse(text: str) -> int:
        from . import config

        try:
            return config.integer(minimum)(int(text))
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}") from None

    return parse


def _command(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``name`` of command module ``module``, imported when the command runs."""

    def handler(args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(args)

    return handler


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelcal",
        description="Calibrated multi-reviewer decisions: aggregation, bounds, "
        "calibration, credible calls, and Monte-Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit thresholds against a labeled record pool")
    p.add_argument("--records", required=True, help="calibration JSONL pool")
    p.add_argument("--config", required=True, help="JSON config with target_rate")
    p.add_argument("--out", default="runs", help="parent directory for run outputs")
    p.add_argument("--seed", type=_int_flag(0), default=None, help="stratified sampling seed")
    p.set_defaults(handler=_command("cli_calibrate", "cmd_calibrate"))

    p = sub.add_parser("review", help="score panels and report corpus metrics")
    p.add_argument("--panels", required=True, help="panel JSONL file")
    p.add_argument("--thresholds", required=True, help="thresholds JSON from calibrate")
    p.add_argument("--config", required=True, help="JSON config with schema/functional")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=_command("cli_panels", "cmd_review"))

    p = sub.add_parser("bayes", help="credible accept/reject calls per panel")
    p.add_argument("--panels", required=True, help="panel JSONL file")
    p.add_argument("--thresholds", default=None, help="thresholds JSON from calibrate")
    p.add_argument("--config", required=True, help="JSON config with bayes prior")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=_command("cli_panels", "cmd_bayes"))

    p = sub.add_parser("detector-eval", help="flag-vs-label detection metrics")
    p.add_argument("--panels", required=True, help="labeled panel JSONL file")
    p.add_argument("--out", default="runs")
    p.set_defaults(handler=_command("cli_panels", "cmd_detector_eval"))

    p = sub.add_parser("simulate", help="Monte-Carlo validation experiments")
    sim_sub = p.add_subparsers(dest="experiment", required=True)

    q = sim_sub.add_parser("margins", help="misclassification vs margin bins")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--m", default=None, help="comma-separated panel sizes, e.g. 1,2,3")
    q.set_defaults(handler=_command("cli_simulate", "cmd_simulate_margins"))

    q = sim_sub.add_parser("threshold-error", help="tau_05 bootstrap error vs n_cal")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--grid", default=None, help="comma-separated n_cal grid")
    q.add_argument("--replicates", type=_int_flag(2), default=None)
    q.set_defaults(handler=_command("cli_simulate", "cmd_simulate_threshold_error"))

    q = sim_sub.add_parser("variance", help="consensus variance vs panel size")
    q.add_argument("--config", default=None)
    q.add_argument("--out", default="runs")
    q.add_argument("--seed", type=_int_flag(0), default=None)
    q.add_argument("--m", default=None, help="comma-separated panel sizes, e.g. 1,2,3")
    q.set_defaults(handler=_command("cli_simulate", "cmd_simulate_variance"))

    p = sub.add_parser("bound", help="print one bound value (6 significant digits)")
    bound_sub = p.add_subparsers(dest="bound_kind", required=True)

    q = bound_sub.add_parser("tail", help="deviation tail bound")
    q.add_argument("--t", type=float, required=True)
    q.add_argument("--sigma-w-sq", type=float, required=True)
    q.add_argument("--c-max", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("margin", help="misclassification bound at a margin")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--sigma-w-sq", type=float, required=True)
    q.add_argument("--c-max", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("scalar", help="uniform-weight scalar bound")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--sigma-sq", type=float, required=True)
    q.add_argument("--range", type=float, required=True, dest="range_width")
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("dkw", help="uniform rate-error bound")
    q.add_argument("--n", type=int, required=True, dest="n_cal")
    q.add_argument("--delta", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    q = bound_sub.add_parser("tau05", help="half-probability threshold error bound")
    q.add_argument("--eps-pi", type=float, required=True)
    q.add_argument("--c-min", type=float, required=True)
    q.add_argument("--flat-width", type=float, required=True)
    q.set_defaults(handler=cmd_bound)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )
    try:
        return args.handler(args)
    except ThresholdUnreachableError as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return 3
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
