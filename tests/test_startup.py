"""Each command imports only the modules it runs.

Fresh interpreters run one command each on the ``test_cli`` fixtures and
report the modules they loaded.  In-process tests cover the lazy
``panelcal`` package: submodules resolve on first attribute access, and
the two exit-code errors live in numpy-free ``core``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import panelcal
from panelcal import calibrate, core, records
from test_cli import BAYES_PANELS, DET_PANELS, PANELS, POOL, THRESHOLDS, bayes_config

SRC = Path(__file__).resolve().parents[1] / "src"
# runs the command like the console script, then prints its exit code and sys.modules
PROBE = (
    "import json, sys\n"
    "from panelcal.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([code, sorted(sys.modules)]))\n"
)


def loaded(cwd, *argv):
    """The modules a fresh interpreter has loaded after running ``panelcal argv``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


def test_bound_loads_no_numpy(tmp_path):
    modules = loaded(tmp_path, "bound", "dkw", "--n", "200", "--delta", "0.05")
    assert "panelcal.bounds" in modules
    unwanted = {"numpy", "panelcal.records", "panelcal.config", "panelcal.simulate",
                "panelcal.calibrate"}
    assert not modules & unwanted


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
    assert "panelcal.cli_panels" in modules
    assert not modules & {"panelcal.simulate", "panelcal.calibrate", "panelcal.bounds"}


def test_calibrate_loads_no_simulate_or_bayes(tmp_path):
    (tmp_path / "pool.jsonl").write_text(POOL, encoding="utf-8")
    (tmp_path / "config.json").write_text('{"target_rate": 0.33}', encoding="utf-8")
    modules = loaded(tmp_path, "calibrate", "--records", "pool.jsonl", "--config", "config.json",
                     "--out", "runs")
    assert "panelcal.calibrate" in modules
    assert not modules & {"panelcal.simulate", "panelcal.bayes"}


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
    assert records.RecordError is core.RecordError
    assert calibrate.ThresholdUnreachableError is core.ThresholdUnreachableError
    assert issubclass(core.RecordError, ValueError)
    assert issubclass(core.ThresholdUnreachableError, ValueError)
