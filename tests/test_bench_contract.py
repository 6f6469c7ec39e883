"""The benchmark's tracer must find every name it wraps in the package.

``bench/tracer.py`` looks its targets up by name, so deleting or renaming a
traced function, method or property breaks ``python3 bench/run.py --trace 1``.
"""

import importlib.util
from pathlib import Path

import panelcal
import panelcal.cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


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
