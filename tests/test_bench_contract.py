"""The benchmark's tracer must find every name it wraps in the package.

``bench/tracer.py`` looks its targets up by name, so deleting or renaming a
traced function, method or property breaks ``python3 bench/run.py --trace 1``.
It rebinds a traced function wherever a ``panelcal`` module holds it, so a
module that binds one by name while the tracer is installed keeps the
wrapper after ``uninstall``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import panelcal
import panelcal.cli

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "tracer.py"
# installs and uninstalls the tracer in a fresh interpreter that has imported only
# panelcal and panelcal.cli, imports every other submodule, and prints the module
# attributes that still wrap a function the tracer patched
PROBE = """\
import importlib, importlib.util, json, pkgutil, sys
import panelcal, panelcal.cli
spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install(panelcal)
originals = [original for _, _, original in tracer._patches]
tracer.uninstall()
for info in pkgutil.iter_modules(panelcal.__path__):
    importlib.import_module(f"panelcal.{info.name}")
left = [f"{name}.{attr}" for name, module in sorted(sys.modules.items())
        if name.startswith("panelcal") for attr, value in vars(module).items()
        if any(getattr(value, "__wrapped__", None) is original for original in originals)]
print(json.dumps([len(originals), left]))
"""


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    original = panelcal.records.load_panel_records
    post_init = vars(panelcal.core.ReviewPanel)["__post_init__"]
    tracer = load_tracer().Tracer()
    try:
        tracer.install(panelcal)
        assert panelcal.records.load_panel_records is not original
    finally:
        tracer.uninstall()
    assert panelcal.records.load_panel_records is original
    assert vars(panelcal.core.ReviewPanel)["__post_init__"] is post_init


def test_uninstall_leaves_no_wrapper_bound_by_name(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(TRACER)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    patched, left = json.loads(proc.stdout.splitlines()[-1])
    assert patched > 0
    assert left == []
