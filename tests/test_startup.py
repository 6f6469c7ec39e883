"""Each command imports only the modules it runs.

Fresh interpreters run one command each on the ``test_cli`` fixtures and
report the modules they loaded.  In-process tests cover the lazy
``panelcal`` package: submodules resolve on first attribute access, and
the two exit-code errors and the number rules live in ``rules``, which
``core`` re-exports.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import panelcal
from panelcal import calibrate, core, records
from test_cli import (
    BAYES_PANELS,
    COHORT_SPEC,
    DET_PANELS,
    PANELS,
    POOL,
    THRESHOLDS,
    bayes_config,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# runs the command like the console script, then prints its exit code and the modules it
# loaded; json is imported only after sys.modules is read
PROBE = (
    "import sys\n"
    "from panelcal.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "modules = sorted(sys.modules)\n"
    "import json\n"
    "print(json.dumps([code, modules]))\n"
)


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def fresh(cwd, *argv, code=0):
    """The modules a fresh interpreter has loaded after running ``panelcal argv``,
    which must exit with ``code``, and what the command printed."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=_env(),
                          capture_output=True, text=True, check=True)
    printed, _, probe = proc.stdout.rstrip("\n").rpartition("\n")
    exit_code, modules = json.loads(probe)
    assert exit_code == code, proc.stderr
    return set(modules), printed


def loaded(cwd, *argv, code=0):
    return fresh(cwd, *argv, code=code)[0]


@functools.cache
def interpreter_modules():
    """The modules ``python -c pass`` has loaded in this environment, site hooks included."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sorted(sys.modules))"],
                          env=_env(), capture_output=True, text=True, check=True)
    return frozenset(proc.stdout.split())


@pytest.mark.parametrize("argv", [
    ["bound", "dkw", "--n", "200", "--delta", "0.05"],
    ["bound", "scalar", "--m", "3", "--gamma", "1", "--sigma-sq", "1", "--range", "9"],
    ["bound", "tau05", "--eps-pi", "0.1", "--c-min", "0.4", "--flat-width", "1"],
    ["--version"],
], ids=["dkw", "scalar", "tau05", "version"])
def test_bound_and_version_load_no_core_dataclasses_hashlib_or_json(tmp_path, argv):
    modules = loaded(tmp_path, *argv) - interpreter_modules()
    assert not modules & {"dataclasses", "hashlib", "json", "panelcal.core"}
    assert not modules & {"numpy", "panelcal.rundir"}


@pytest.mark.parametrize(("argv", "expected"), [
    (["bound", "tail", "--t", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
    (["bound", "margin", "--gamma", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
])
def test_tail_and_margin_build_their_bound_inputs(tmp_path, argv, expected):
    modules, printed = fresh(tmp_path, *argv)
    assert printed == expected
    assert "panelcal.core" in modules


def test_bound_loads_no_numpy(tmp_path):
    modules = loaded(tmp_path, "bound", "dkw", "--n", "200", "--delta", "0.05")
    assert "panelcal.bounds" in modules
    unwanted = {"numpy", "panelcal.records", "panelcal.config", "panelcal.simulate",
                "panelcal.calibrate", "logging"}
    assert not modules & unwanted


def test_integer_flags_load_no_numpy(tmp_path):
    # --seed and --replicates are parsed before --out is found blocked by a file
    (tmp_path / "blocked").write_text("", encoding="utf-8")
    modules = loaded(tmp_path, "simulate", "threshold-error", "--seed", "3", "--replicates", "5",
                     "--out", "blocked", code=2)
    assert not modules & {"numpy", "panelcal.config", "panelcal.cli_simulate"}


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval"])
def test_panel_commands_load_no_simulate_calibrate_or_bounds(tmp_path, command):
    def write(name, text):
        (tmp_path / name).write_text(text, encoding="utf-8")
        return name

    thresholds = write("thresholds.json", THRESHOLDS)
    argv = {
        "review": ["--panels", write("panels.jsonl", PANELS), "--thresholds", thresholds,
                   "--config", write("config.json", json.dumps(
                       {"schema": {"criteria_count": 2, "bounds": [[0, 10], [0, 10]]}}))],
        "bayes": ["--panels", write("panels.jsonl", BAYES_PANELS), "--thresholds", thresholds,
                  "--config", write("config.json", json.dumps(bayes_config("tau_05")))],
        "detector-eval": ["--panels", write("panels.jsonl", DET_PANELS)],
    }[command]
    modules = loaded(tmp_path, command, *argv, "--out", "runs")
    assert {"panelcal.cli_panels", "panelcal.rundir"} <= modules
    assert not modules & {"panelcal.simulate", "panelcal.calibrate", "panelcal.bounds", "logging",
                          "numpy.ma"}
    if command != "bayes":
        assert not modules & {"panelcal.bayes", "statistics"}


def test_calibrate_loads_no_simulate_or_bayes(tmp_path):
    (tmp_path / "pool.jsonl").write_text(POOL, encoding="utf-8")
    (tmp_path / "config.json").write_text('{"target_rate": 0.33}', encoding="utf-8")
    modules = loaded(tmp_path, "calibrate", "--records", "pool.jsonl", "--config", "config.json",
                     "--out", "runs")
    assert {"panelcal.calibrate", "panelcal.rundir"} <= modules
    assert not modules & {"panelcal.simulate", "panelcal.bayes", "panelcal.aggregate", "logging"}


def test_threshold_error_loads_no_aggregate(tmp_path):
    # two replicates fail the slope check (exit 4) after the whole experiment has run
    modules = loaded(tmp_path, "simulate", "threshold-error", "--grid", "50,100", "--replicates", "2",
                     "--out", "runs", code=4)
    assert {"panelcal.simulate", "panelcal.rundir"} <= modules
    assert not modules & {"panelcal.aggregate", "panelcal.bayes"}
    # it reads no JSONL, so it loads no column cache
    assert {m for m in modules if m.startswith("panelcal")} == {
        "panelcal", "panelcal.bounds", "panelcal.calibrate", "panelcal.cli", "panelcal.cli_simulate",
        "panelcal.config", "panelcal.core", "panelcal.metrics", "panelcal.records", "panelcal.rules",
        "panelcal.rundir", "panelcal.simulate",
    }


@functools.cache
def numpy_modules():
    """The modules ``python -c "import numpy"`` has loaded."""
    proc = subprocess.run([sys.executable, "-c", "import sys, numpy; print(*sorted(sys.modules))"],
                          env=_env(), capture_output=True, text=True, check=True)
    return frozenset(proc.stdout.split())


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval", "calibrate"])
def test_the_column_cache_loads_no_serializer_beyond_numpy(tmp_path, command):
    from test_cli import cached_command

    argv, _ = cached_command(tmp_path, command)
    for _ in ("miss", "hit"):
        modules = loaded(tmp_path, *argv, "--out", "runs")
        assert "panelcal.cache" in modules
        assert modules & {"pickle", "zipfile", "numpy.lib._npyio_impl"} <= numpy_modules()
    assert len(list((tmp_path / "runs" / ".panelcal-cache").iterdir())) == 1


@pytest.mark.parametrize("experiment", ["margins", "variance"])
def test_cohort_experiments_load_the_run_directory(tmp_path, experiment):
    config = {"simulate": {experiment: {"spec": COHORT_SPEC}}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    modules = loaded(tmp_path, "simulate", experiment, "--config", "config.json", "--m", "1,2",
                     "--out", "runs")
    assert {"panelcal.cli_simulate", "panelcal.rundir"} <= modules


def test_import_panelcal_loads_no_submodule(tmp_path):
    modules = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, sys, panelcal; print(json.dumps(sorted(sys.modules)))"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        check=True,
    ).stdout)
    assert [m for m in modules if m.startswith("panelcal")] == ["panelcal"]


def test_lazy_package_resolves_every_public_name():
    assert set(panelcal.__all__) <= set(dir(panelcal))
    assert {"cli", "config"} <= set(dir(panelcal))
    for name in panelcal.__all__:
        value = getattr(panelcal, name)
        if name != "__version__":
            assert value is sys.modules[f"panelcal.{name}"]
    from panelcal import config

    assert panelcal.config is config
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        panelcal.nope


def test_exit_code_errors_are_reexported():
    from panelcal import rules

    for name in ("RecordError", "ThresholdUnreachableError", "NumberRule", "finite", "positive",
                 "non_negative", "open_unit"):
        assert getattr(core, name) is getattr(rules, name)
    assert records.RecordError is rules.RecordError
    assert calibrate.ThresholdUnreachableError is rules.ThresholdUnreachableError
    assert issubclass(rules.RecordError, ValueError)
    assert issubclass(rules.ThresholdUnreachableError, ValueError)
