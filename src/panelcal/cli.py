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
input and output digests, UTC timestamps); no run directory is ever
overwritten.  ``--out`` also keeps the column cache of the JSONL inputs
(``.panelcal-cache``, see ``rundir``).  A command that stops on an error
creates nothing under ``--out``, nor does one whose writes fail.  Exit
codes: 0 success, 2 input, config or file error (stdout's included),
3 calibration infeasible, 4 simulation property-check failure (its run
directory is still written).

This module holds the parser, ``main``, ``run``, the ``--out`` check, the
file digest and ``bound``, and imports only ``rules``, argparse and small
standard modules.  The data commands live in ``cli_calibrate``,
``cli_panels``, ``cli_detector`` and ``cli_simulate``, each imported only
when its command runs, with the run directory and its manifest in
``rundir``.  So a command loads just the modules it uses: ``bound dkw``,
``scalar`` and ``tau05`` load no numpy, ``core``, ``dataclasses``,
``hashlib`` or ``json``; ``bound tail`` and ``margin`` load ``weights``
and ``dataclasses`` for their ``BoundInputs``, and still no numpy or
``core``.  No command loads the object layer, ``objects``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
import os
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .rules import ThresholdUnreachableError

__all__ = ["build_parser", "main", "run"]


# ---------------------------------------------------------------- --out and digests


def _out_error(out_base: Path, code: int) -> ValueError:
    """The ``--out`` error when a file blocks ``out_base``, worded as ``mkdir`` fails with ``code``."""
    return ValueError(f"--out: {out_base}: cannot create directory ({os.strerror(code)})")


def _check_out(out: str) -> None:
    """Raise the ``--out`` error unless ``out`` is, or ``mkdir`` can make it, a directory.

    Nothing is created: the nearest existing path of ``out`` and its
    parents must be a directory.
    """
    out_base = Path(out)
    for path in (out_base, *out_base.parents):
        if path.exists():
            if not path.is_dir():
                raise _out_error(out_base, errno.EEXIST if path == out_base else errno.ENOTDIR)
            return


_HASH_BLOCK = 1 << 20  # bytes read at once, so no file is held whole to hash it


def _sha256_file(path: Path) -> str:
    # no command calls it (each manifest digest is of bytes already read); bench/tracer.py wraps it by name
    import hashlib  # here: OpenSSL costs bound, which hashes nothing, a few ms of start-up

    digest = hashlib.sha256()
    with path.open("rb") as file:
        for block in iter(lambda: file.read(_HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> int:
    from . import bounds

    if args.bound_kind in ("tail", "margin"):
        from .weights import BoundInputs  # only these two kinds load dataclasses

        inputs = BoundInputs(sigma_w_sq=args.sigma_w_sq, c_max=args.c_max)
        if args.bound_kind == "tail":
            value = bounds.tail_bound(args.t, inputs)
        else:
            value = bounds.margin_misclassification_bound(args.gamma, inputs)
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
    """argparse type of an integer flag (``--seed``, ``--replicates``): at least ``minimum``, worded as
    ``rules.integer`` words it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text}")
        return value

    return parse


def _command(module: str, name: str) -> Callable[[argparse.Namespace], int]:
    """The handler ``name`` of command module ``module``, imported when the command runs."""

    def handler(args: argparse.Namespace) -> int:
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(args)

    return handler


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message: str, file: Any = None) -> None:
        """argparse's, but a failed write to stdout (``--help``, ``--version``) is raised, for ``run`` to word."""
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.set_defaults(handler=_command("cli_detector", "cmd_detector_eval"))

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
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)  # before the command reads anything
        return args.handler(args)
    except ThresholdUnreachableError as exc:
        print(f"error: calibration infeasible: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a file the command reads or writes: its path and the reason, as one line
        if exc.filename is None:  # a write to stdout: every file's error names it (``rundir._write``)
            raise  # ``run`` words it; an in-process caller owns its stdout
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The ``panelcal`` console script: ``main``, then stdout flushed and the heap frozen, then exit.

    At exit the interpreter runs its cyclic collections over every object
    still tracked, numpy's included.  ``gc.freeze()`` moves them all out of
    the collector's reach on every way out (an exit code, argparse's exit,
    an uncaught exception), so those passes skip them; ``atexit`` hooks,
    the flush of the std streams and the clearing of the modules still
    run.  No output waits for them: every output file is closed before
    ``main`` returns, and stdout is flushed here.  A failed write to
    stdout (a reader gone, a full disk; ``--help`` and ``--version``
    included) exits 2 with one line, and fd 1 is then pointed at
    ``os.devnull``, so the interpreter's own flush at exit prints nothing
    more.  ``main`` does neither, so in-process callers keep a normal
    collector and their own stdout.
    """
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse: a usage error (2), --help and --version (0)
            code = exc.code
        if sys.stdout is not None:  # None when fd 1 was closed at start-up: print then writes nothing
            sys.stdout.flush()
    except OSError as exc:  # only a write to stdout gets here: ``main`` words every file's error
        print(f"error: stdout: {exc.strerror}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 2
    finally:
        gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
