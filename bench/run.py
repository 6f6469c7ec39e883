"""Seeded end-to-end benchmark of the panelcal CLI.

    python3 bench/run.py --workload corpus-r5 --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src/``).
The workload's inputs are generated from ``--seed``; every CLI command
runs as its own subprocess, and every output is checked against the
run's manifest digests and the numpy oracle.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` (one operation is one
CLI invocation) and ``metrics``.

``--trace 0`` reports the end-to-end metrics: per-command wall time, the
largest child peak RSS, and ``setup_s``, the wall of a ``bound dkw``
launch.  The run repeats rounds of all commands, each preceded by one
``bound dkw`` launch and followed by one machine-speed reference, until
``--seconds`` have passed (at least one round).  Times are medians over
the rounds of samples scaled to nominal machine speed (see
``timed_run``); the unscaled medians are printed on the ``raw`` line.

``--trace 1`` runs each command in-process twice, untraced and then under
the outside-in tracer, and reports the per-layer metrics named
``<command>.<layer>.<metric>``; aggregated spans go to
``.bench_work/traces/``.  ``--smoke`` shrinks the inputs for quick tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from workloads import DKW_ARGS, SPECS, Inputs, commands, generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LAUNCHER = "from panelcal.cli import run; run()"  # what the `panelcal` console script runs
IMPORTTIME_LAUNCHES = 3
REF_NOMINAL_S = 0.25  # reference time that defines a nominal-speed second
PROBE_LOOPS = 8000
PROBE_LINE = json.dumps({"id": "p1", "label": False, "reviews": [
    {"reviewer": "r1", "rubric": [5.5, 6.25, 7.0, 4.75], "flag": False},
    {"reviewer": "r2", "rubric": [6.5, 5.25, 7.5, 5.75], "flag": True}]})

# Per-layer metrics reported for each command: only the layers it exercises.
LAYERS = {
    "review": ("records.load_s", "records.lines", "core.objects", "core.validate_s",
               "core.panel_lookups", "core.lookups_per_panel", "aggregate.calls",
               "aggregate.self_s", "metrics.rate_s", "metrics.panels_scanned",
               "metrics.format_s", "cli.self_s", "cli.io_bytes", "trace.overhead_s"),
    "bayes": ("records.load_s", "records.lines", "core.objects", "core.validate_s",
              "aggregate.calls", "aggregate.self_s", "bayes.calls", "bayes.self_s",
              "metrics.format_s", "cli.self_s", "cli.io_bytes", "trace.overhead_s"),
    "detector_eval": ("records.load_s", "records.lines", "core.objects", "core.validate_s",
                      "core.panel_lookups", "core.lookups_per_panel", "metrics.rate_s",
                      "metrics.panels_scanned", "metrics.format_s", "cli.self_s",
                      "cli.io_bytes", "trace.overhead_s"),
    "calibrate": ("records.load_s", "records.lines", "core.objects", "core.validate_s",
                  "calibrate.fit_s", "metrics.format_s", "cli.self_s", "cli.io_bytes",
                  "trace.overhead_s"),
    "threshold_error": ("core.objects", "core.validate_s", "calibrate.tau05_calls",
                        "calibrate.tau05_s", "calibrate.unreachable",
                        "simulate.bootstrap_self_s", "simulate.population_s",
                        "metrics.format_s", "cli.self_s", "cli.io_bytes", "trace.overhead_s"),
}
COUNT_SUFFIXES = ("lines", "objects", "panel_lookups", "calls", "panels_scanned",
                  "tau05_calls", "unreachable", "io_bytes")


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if suffix == "lookups_per_panel":
        return "1/panel"
    return "count" if suffix in COUNT_SUFFIXES else "s"


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# ------------------------------------------------------------ subprocess runs


def run_child(argv: list[str], cwd: Path, env: dict[str, str]) -> tuple[float, int, int, str, str]:
    """Run one child; return (wall_s, maxrss_kb, exit_code, stdout, stderr).

    ``os.wait4`` reaps exactly this child, so its rusage is this command's
    own, unlike RUSAGE_CHILDREN, which is a maximum over all children.
    """
    out_path, err_path = cwd / "child.out", cwd / "child.err"
    with out_path.open("w") as out, err_path.open("w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_maxrss, proc.returncode,
            out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def launch_dkw(work: Path, env: dict[str, str], tally: Tally) -> float:
    """One ``bound dkw`` launch: interpreter start, imports and argparse."""
    wall, _, code, out, err = run_child(
        [sys.executable, "-c", LAUNCHER, "bound", "dkw", *DKW_ARGS], work, env)
    tally.record([] if code == 0 and out.strip() == oracle.expected_dkw() else [
        f"bound dkw: exit {code}, stdout {out.strip()!r}, stderr {err.strip()[-200:]!r}"])
    return wall


def reference(work: Path, env: dict[str, str]) -> float:
    """Machine-speed reference: an ``import numpy`` launch plus a pure-Python JSON loop.

    Neither touches panelcal, so no change to the program can move it.
    """
    wall, _, code, _, err = run_child([sys.executable, "-c", "import numpy"], work, env)
    if code != 0:
        raise RuntimeError(f"reference launch failed: {err.strip()[-300:]}")
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        obj = json.loads(PROBE_LINE)
        rows = [tuple(float(v) for v in r["rubric"]) for r in obj["reviews"]]
        sum(sum(r) for r in rows) / len(rows)
    return wall + time.perf_counter() - start


def timed_run(inputs: Inputs, seconds: float, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Rounds of (set-up launch, command, reference) steps, until ``seconds`` pass.

    Returns the reported metrics and the unscaled medians.  On a shared
    machine the speed of a CPU drifts by tens of percent within minutes, so
    every child runs on one CPU, the same as the reference, and each set-up
    and command sample is scaled by REF_NOMINAL_S over the mean of the two
    references around it.  Interleaving spreads each command's samples over
    the whole run.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    cmds = commands(inputs)
    launch_dkw(work, env, tally)  # warm-up: bytecode and page caches
    raw: dict[str, list[float]] = {"setup": [], **{name: [] for name in cmds}}
    scaled: dict[str, list[float]] = {name: [] for name in raw}
    refs = [reference(work, env)]
    peak_kb = 0
    start = time.perf_counter()
    while len(refs) == 1 or time.perf_counter() - start < seconds:
        for name, args in cmds.items():
            setup = launch_dkw(work, env, tally)
            argv = [sys.executable, "-c", LAUNCHER, *args, "--out", str(work / "runs")]
            wall, rss_kb, code, out, err = run_child(argv, work, env)
            refs.append(reference(work, env))
            speed = (refs[-2] + refs[-1]) / 2 / REF_NOMINAL_S
            for key, value in (("setup", setup), (name, wall)):
                raw[key].append(value)
                scaled[key].append(value / speed)
            peak_kb = max(peak_kb, rss_kb)
            tally.record(oracle.verify(name, inputs, out) if code == 0 else [
                f"{name}: exit {code}: {err.strip()[-300:]}"])
    metrics = {f"{key}_s": (statistics.median(values), "s") for key, values in scaled.items()}
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    unscaled = {f"{key}_s": statistics.median(values) for key, values in raw.items()}
    unscaled.update(reference_s=statistics.median(refs), rounds=len(raw["setup"]) // len(cmds))
    return metrics, unscaled


# ------------------------------------------------------------ traced runs


def import_seconds(work: Path, env: dict[str, str], tally: Tally) -> float:
    """Median cumulative import time of the panelcal packages (-X importtime)."""
    argv = [sys.executable, "-X", "importtime", "-c", "import panelcal.cli"]
    samples = []
    for _ in range(IMPORTTIME_LAUNCHES):
        _, _, code, _, err = run_child(argv, work, env)
        micros = 0
        for line in err.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) == 3 and parts[2].startswith(" panelcal"):  # top level only
                micros += int(parts[1])
        tally.record([] if code == 0 and micros else [f"import panelcal.cli: exit {code}"])
        samples.append(micros / 1e6)
    return statistics.median(samples)


def run_inprocess(cli, argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark crash
            err.write(traceback.format_exc())
            code = -1
    wall = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return wall, code, out.getvalue()


def traced_run(inputs: Inputs, work: Path, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import panelcal
    import panelcal.cli
    from tracer import Tracer

    metrics = {"setup.import_s": (import_seconds(work, child_env(), tally), "s")}
    spans = {}
    for name, args in commands(inputs).items():
        argv = [*args, "--out", str(work / "runs")]
        walls = {}
        for traced in (False, True):
            tracer = Tracer()
            if traced:
                tracer.install(panelcal)
            try:
                walls[traced], code, out = run_inprocess(panelcal.cli, argv)
            finally:
                tracer.uninstall()
            tally.record(oracle.verify(name, inputs, out) if code == 0 else [f"{name}: exit {code}"])
        layer = tracer.layer_metrics(len(inputs.panel_ids))
        layer["trace.overhead_s"] = walls[True] - walls[False]
        for metric in LAYERS[name]:
            full = f"{name}.{metric}"
            metrics[full] = (layer[metric], unit_of(full))
        spans[name] = {"wall_untraced_s": walls[False], "wall_traced_s": walls[True],
                       **tracer.dump()}
    return metrics, spans


# ------------------------------------------------------------ main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring budget of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "panelcal" / "cli.py").is_file():
        print(f"error: no panelcal sources under {SRC}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    work = WORK / f"{spec.name}-s{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        inputs = generate(spec, args.seed, work / "inputs", smoke=args.smoke)
        print("inputs " + json.dumps(inputs.properties(), sort_keys=True), flush=True)
        if args.trace:
            metrics, spans = traced_run(inputs, work, tally)
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            (trace_dir / f"{spec.name}-s{args.seed}.json").write_text(
                json.dumps(spans, indent=1) + "\n", encoding="utf-8")
        else:
            metrics, raw = timed_run(inputs, args.seconds, work, tally)
            print("raw " + json.dumps(raw, sort_keys=True), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in tally.errors[:20]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
