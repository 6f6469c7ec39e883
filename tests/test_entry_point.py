"""The console script, ``panelcal.cli:run``, launched as the installed entry point runs it.

``run`` wraps ``main``: it flushes stdout, freezes the heap with
``gc.freeze()`` and exits.  Fresh interpreters run it here and check that
its exit codes, its stdout and every output file are those of ``main``
called in process, that the heap is frozen on every way out of ``run``
and never by ``main``, and that a stdout that cannot be written ends in
exit 2 with one line on stderr.
"""

import errno
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from panelcal.cli import main
from test_cli import BAYES_PANELS, DET_PANELS, PANELS, POOL, SMALL_POPULATION, THRESHOLDS, bayes_config

SRC = Path(__file__).resolve().parents[1] / "src"
LAUNCH = "from panelcal.cli import run; run()"  # what the `panelcal` console script runs
DKW = ["bound", "dkw", "--n", "200", "--delta", "0.05"]
# the bootstrap's checks pass on this population, so the launch exits 0 and prints every check line
SIMULATE_CONFIG = {"simulate": {"threshold_error": {
    "population": SMALL_POPULATION, "n_cal_grid": [50, 100, 200], "replicates": 40, "seed": 11}}}


def env(unbuffered=True):
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        environ["PYTHONUNBUFFERED"] = "1"
    path = os.environ.get("PYTHONPATH")
    return {**environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def launch(cwd, *argv, unbuffered=True, prelude="", stdout=subprocess.PIPE):
    """``panelcal argv`` in a fresh interpreter, after ``prelude``; stdout and stderr as text."""
    return subprocess.run([sys.executable, "-c", prelude + LAUNCH, *argv], cwd=cwd, env=env(unbuffered),
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


def inputs(tmp_path):
    """The test_cli fixtures as files, by name."""
    files = {
        "pool.jsonl": POOL,
        "infeasible.jsonl": '{"id": "c1", "score": 2.0, "accept": false, "status": "reject"}\n'
                            '{"id": "c2", "score": 3.0, "accept": false, "status": "reject"}\n',
        "panels.jsonl": PANELS,
        "bayes.jsonl": BAYES_PANELS,
        "labeled.jsonl": DET_PANELS,
        "thresholds.json": THRESHOLDS,
        "calibrate.json": json.dumps({"target_rate": 0.33}),
        "review.json": json.dumps({"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]}}),
        "bayes.json": json.dumps(bayes_config("tau_05")),
        "simulate.json": json.dumps(SIMULATE_CONFIG),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return {name: str(tmp_path / name) for name in files}


def command(name, files, out):
    return {
        "calibrate": ["calibrate", "--records", files["pool.jsonl"], "--config", files["calibrate.json"]],
        "review": ["review", "--panels", files["panels.jsonl"], "--thresholds", files["thresholds.json"],
                   "--config", files["review.json"]],
        "bayes": ["bayes", "--panels", files["bayes.jsonl"], "--thresholds", files["thresholds.json"],
                  "--config", files["bayes.json"]],
        "detector-eval": ["detector-eval", "--panels", files["labeled.jsonl"]],
        "threshold-error": ["simulate", "threshold-error", "--config", files["simulate.json"]],
    }[name] + ["--out", str(out)]


def run_directory(out):
    (directory,) = (p for p in Path(out).iterdir() if not p.name.startswith("."))
    return directory


@pytest.mark.parametrize(("argv", "code"), [
    (DKW, 0),
    (["bound", "dkw", "--n", "200", "--delta", "1.5"], 2),
    (["calibrate", "--records", "infeasible.jsonl", "--config", "calibrate.json", "--out", "runs"], 3),
    (["simulate", "threshold-error", "--grid", "50,100", "--replicates", "2", "--out", "runs"], 4),
    (["bound", "dkw", "--n", "200"], 2),
    (["--help"], 0),
], ids=["ok", "bad-input", "unreachable", "failed-check", "usage", "help"])
def test_exit_codes_and_stderr_are_mains(tmp_path, capsys, monkeypatch, argv, code):
    inputs(tmp_path)
    monkeypatch.chdir(tmp_path)  # argv's relative paths, for main as for the launch
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal's width
    try:
        expected = main(argv)
    except SystemExit as exc:  # argparse
        expected = exc.code
    _, err = capsys.readouterr()
    proc = launch(tmp_path, *argv)
    assert (proc.returncode, expected) == (code, code)
    assert proc.stderr == err
    if argv == ["--help"]:
        assert proc.stdout.startswith("usage: panelcal ")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_redirected_to_a_file_is_complete(tmp_path, unbuffered):
    files = inputs(tmp_path)
    with (tmp_path / "dkw.txt").open("w") as stdout:
        assert launch(tmp_path, *DKW, unbuffered=unbuffered, stdout=stdout).returncode == 0
    assert (tmp_path / "dkw.txt").read_text() == "0.104666\n"
    out = tmp_path / "runs"
    with (tmp_path / "simulate.txt").open("w") as stdout:
        proc = launch(tmp_path, *command("threshold-error", files, out), unbuffered=unbuffered, stdout=stdout)
    assert (proc.returncode, proc.stderr) == (0, "")
    directory = run_directory(out)
    checks = (directory / "checks.txt").read_text()
    assert "PASS: error decays like 1/sqrt(n_cal), near-monotone" in checks
    assert (tmp_path / "simulate.txt").read_text() == f"run directory: {directory}\n{checks}"


@pytest.mark.parametrize("name", ["review", "bayes", "detector-eval", "calibrate", "threshold-error"])
def test_the_launched_command_writes_what_main_writes(tmp_path, capsys, name):
    files = inputs(tmp_path)
    assert main(command(name, files, tmp_path / "in-process")) == 0
    capsys.readouterr()
    proc = launch(tmp_path, *command(name, files, tmp_path / "launched"))
    assert (proc.returncode, proc.stderr) == (0, "")
    expected, got = run_directory(tmp_path / "in-process"), run_directory(tmp_path / "launched")
    assert proc.stdout.startswith(f"run directory: {got}\n")
    names = sorted(p.name for p in expected.iterdir())
    assert names == sorted(p.name for p in got.iterdir()) and len(names) > 1
    for output in names:
        if output != "manifest.json":
            assert (got / output).read_bytes() == (expected / output).read_bytes(), output
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (expected, got)]
    for manifest in manifests:
        del manifest["started_at"], manifest["finished_at"]
    assert manifests[0] == manifests[1]


# each way out of run: an exit code, a handled error, argparse's exit, an uncaught exception
@pytest.mark.parametrize(("argv", "prelude", "code"), [
    (DKW, "", 0),
    (["bound", "dkw", "--n", "200", "--delta", "1.5"], "", 2),
    (["bound", "dkw", "--n", "200"], "", 2),
    (DKW, "import panelcal.bounds; panelcal.bounds.dkw_bound = lambda n, delta: 1 / 0\n", 1),
], ids=["ok", "bad-input", "usage", "uncaught"])
def test_atexit_sees_a_frozen_heap(tmp_path, argv, prelude, code):
    hook = "import atexit, gc, sys\natexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
    proc = launch(tmp_path, *argv, prelude=hook + prelude)
    assert proc.returncode == code
    *_, last = proc.stderr.splitlines()
    assert last.startswith("frozen ") and int(last.split()[1]) > 0


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    files = inputs(tmp_path)
    assert gc.get_freeze_count() == 0
    assert main(DKW) == 0
    assert main(command("bayes", files, tmp_path / "runs")) == 0
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv", [DKW, ["simulate", "threshold-error", "--config", "simulate.json", "--out", "runs"]],
                         ids=["dkw", "threshold-error"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_pipe_on_stdout_exits_2_with_one_line(tmp_path, argv, unbuffered):
    inputs(tmp_path)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = launch(tmp_path, *argv, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == f"error: stdout: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_help_and_version_into_a_closed_pipe_exit_2_with_one_line(tmp_path, flag, unbuffered):
    # argparse swallows a failed write of its own messages: unbuffered, the write fails inside it
    read, write = os.pipe()
    os.close(read)
    try:
        proc = launch(tmp_path, flag, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, f"error: stdout: {os.strerror(errno.EPIPE)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_full_disk_on_stdout_exits_2_with_one_line(tmp_path, unbuffered):
    with open("/dev/full", "w") as stdout:
        proc = launch(tmp_path, *DKW, unbuffered=unbuffered, stdout=stdout)
    assert (proc.returncode, proc.stderr) == (2, f"error: stdout: {os.strerror(errno.ENOSPC)}\n")


def test_a_stdout_closed_at_start_up_prints_nothing_and_exits_0(tmp_path):
    # the interpreter then sets sys.stdout to None, and print writes nothing
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-c", LAUNCH, *DKW],
                          cwd=tmp_path, env=env(), stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
