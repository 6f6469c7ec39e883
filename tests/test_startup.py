"""Each command imports only the modules it runs.

Fresh interpreters run one command each on the ``test_cli`` fixtures and
report the modules they loaded and the dataclasses those modules
define.  In-process tests cover the lazy ``panelcal`` package:
submodules resolve on first attribute access, the two exit-code errors
and the number rules live in ``rules``, which ``core`` re-exports, and
every name that ``core``, ``aggregate``, ``records``, ``calibrate``,
``simulate``, ``metrics`` and ``bayes`` export from a module of its own
is one object wherever it is exported.
"""

import functools
import importlib
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
    STRATIFY,
    THRESHOLDS,
    bayes_config,
)

SRC = Path(__file__).resolve().parents[1] / "src"
# runs the command like the console script, then prints its exit code, the modules it
# loaded and the dataclasses the panelcal ones define; json is imported only after sys.modules is read
PROBE = (
    "import sys\n"
    "from panelcal.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "modules = sorted(sys.modules)\n"
    "built = sorted(f'{name}.{value.__name__}' for name in modules if name.startswith('panelcal')\n"
    "               for value in vars(sys.modules[name]).values()\n"
    "               if isinstance(value, type) and '__dataclass_fields__' in vars(value)\n"
    "               and value.__module__ == name)\n"
    "import json\n"
    "print(json.dumps([code, modules, built]))\n"
)


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def probe(cwd, *argv, code=0):
    """The modules a fresh interpreter has loaded after running ``panelcal argv``, which
    must exit with ``code``, the dataclasses those modules define (``module.Class``), and
    what the command printed.

    No command loads scipy, which only the tests use: every probe checks it."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=cwd, env=_env(),
                          capture_output=True, text=True, check=True)
    printed, _, result = proc.stdout.rstrip("\n").rpartition("\n")
    exit_code, modules, built = json.loads(result)
    assert exit_code == code, proc.stderr
    assert not [m for m in modules if m.partition(".")[0] == "scipy"]
    return set(modules), built, printed


def fresh(cwd, *argv, code=0):
    """The modules ``probe`` reports and what the command printed."""
    modules, _, printed = probe(cwd, *argv, code=code)
    return modules, printed


def loaded(cwd, *argv, code=0):
    return fresh(cwd, *argv, code=code)[0]


def cohort_argv(tmp_path, experiment):
    """``simulate experiment`` (margins or variance) on the ``test_cli`` cohort, panel sizes 1 and 2."""
    config = {"simulate": {experiment: {"spec": COHORT_SPEC}}}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return ["simulate", experiment, "--config", "config.json", "--m", "1,2", "--out", "runs"]


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
    # BoundInputs is defined in weights, which loads no numpy, not in the object layer
    assert "panelcal.weights" in modules
    assert not modules & {"panelcal.objects", "panelcal.core", "numpy"}


@pytest.mark.parametrize("argv", [
    ["bound", "tail", "--t", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"],
    ["bound", "margin", "--gamma", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"],
    ["bound", "scalar", "--m", "3", "--gamma", "1", "--sigma-sq", "1", "--range", "9"],
    ["bound", "dkw", "--n", "200", "--delta", "0.05"],
    ["bound", "tau05", "--eps-pi", "0.1", "--c-min", "0.4", "--flat-width", "1"],
    ["simulate", "margins"],
    ["simulate", "variance"],
    ["simulate", "threshold-error"],
    ["review"],
    ["bayes"],
    ["detector-eval"],
    ["calibrate"],
], ids=lambda argv: "-".join(argv[:2]))
def test_no_command_loads_the_object_layer(tmp_path, argv):
    code = 0
    if argv[0] == "simulate" and argv[1] != "threshold-error":
        argv = cohort_argv(tmp_path, argv[1])
    elif argv[0] == "simulate":  # two replicates fail the slope check (exit 4) after the whole experiment has run
        argv, code = [*argv, "--grid", "50,100", "--replicates", "2", "--out", "runs"], 4
    elif argv[0] != "bound":
        from test_cli import cached_command

        argv = [*cached_command(tmp_path, argv[0])[0], "--out", "runs"]
    assert "panelcal.objects" not in loaded(tmp_path, *argv, code=code)


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
    module = "panelcal.cli_detector" if command == "detector-eval" else "panelcal.cli_panels"
    assert {module, "panelcal.rundir"} <= modules
    assert not modules & {"panelcal.simulate", "panelcal.calibrate", "panelcal.bounds", "logging",
                          "numpy.ma"}
    # they work on the table's columns: the record objects are never built
    assert "panelcal.objects" not in modules
    if command != "bayes":
        assert not modules & {"panelcal.bayes", "statistics"}
    else:  # it computes no rate and checks no reserved reviewer name
        assert not modules & {"panelcal.metrics", "panelcal.cli_detector"}


def calibrate_modules(tmp_path, config):
    (tmp_path / "pool.jsonl").write_text(POOL, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    modules = loaded(tmp_path, "calibrate", "--records", "pool.jsonl", "--config", "config.json",
                     "--out", "runs")
    assert {"panelcal.calibrate", "panelcal.rundir"} <= modules
    # the curve is fitted and written from the tail counts' columns: no point-and-knot API
    assert not modules & {"panelcal.simulate", "panelcal.bayes", "panelcal.aggregate", "logging",
                          "panelcal.objects", "panelcal.isotonic"}
    return modules


def test_calibrate_loads_no_simulate_or_bayes(tmp_path):
    modules = calibrate_modules(tmp_path, {"target_rate": 0.33})
    # the stratification code is loaded only to draw a stratified calibration set
    assert "panelcal.strata" not in modules
    # it computes no rate: its CSV and report go through the writers alone
    assert "panelcal.writers" in modules and "panelcal.metrics" not in modules


def test_stratified_calibrate_loads_the_stratification_code(tmp_path):
    assert "panelcal.strata" in calibrate_modules(tmp_path, {"target_rate": 0.33, "stratify": STRATIFY})


def test_threshold_error_loads_no_aggregate(tmp_path):
    # two replicates fail the slope check (exit 4) after the whole experiment has run
    modules = loaded(tmp_path, "simulate", "threshold-error", "--grid", "50,100", "--replicates", "2",
                     "--out", "runs", code=4)
    assert {"panelcal.simulate", "panelcal.rundir"} <= modules
    assert not modules & {"panelcal.aggregate", "panelcal.bayes"}
    # it reads no JSONL, so it loads neither the loaders, the column cache nor the tables; it runs
    # no margin or variance experiment (nor bounds), no stratification, no isotonic fit, builds no
    # record object and no core type (its NoiseProfile is simulate's), and computes no rate: its CSV
    # goes through the writers, not metrics
    assert {m for m in modules if m.startswith("panelcal")} == {
        "panelcal", "panelcal.calibrate", "panelcal.cli", "panelcal.cli_simulate", "panelcal.config",
        "panelcal.rules", "panelcal.rundir", "panelcal.simulate", "panelcal.writers",
    }


# the dataclasses each data command's modules define: the types it runs, and no other
SIMULATE_TYPES = {"simulate.NoiseProfile", "simulate.LatentDistribution", "simulate.CohortSpec",
                  "simulate.Cohort", "simulate.ThresholdErrorRow", "simulate.PopulationSettings",
                  "simulate.Population"}
COLUMN_TYPES = {"rundir.RunManifest", "tables.PanelTable", "tables.CalibrationTable"}
CORE_TYPES = {"core.RubricSchema", "core.ScoringFunctional", "core.DecisionThresholds"}
# ConfusionCounts and DetectorMetrics are the object layer's: review and detector-eval count and rate on columns
BUILT = {
    "threshold-error": SIMULATE_TYPES | {"rundir.RunManifest"},
    # the cohort experiments' rows and the two weights types, not the object layer's
    "margins": SIMULATE_TYPES | {"rundir.RunManifest", "experiments.MarginBinRow", "experiments.VarianceRow",
                                 "weights.ReviewerWeights", "weights.BoundInputs"},
    "review": CORE_TYPES | COLUMN_TYPES,
    "bayes": CORE_TYPES | COLUMN_TYPES | {"bayes.GaussianPosterior"},
    "calibrate": CORE_TYPES | COLUMN_TYPES,
    "detector-eval": COLUMN_TYPES,
}


@pytest.mark.parametrize(("command", "count"), [
    ("threshold-error", 8), ("margins", 12), ("review", 6), ("bayes", 7), ("calibrate", 6), ("detector-eval", 3),
])
def test_each_data_command_builds_only_the_dataclasses_it_runs(tmp_path, command, count):
    if command == "threshold-error":
        _, built, _ = probe(tmp_path, "simulate", "threshold-error", "--grid", "50,100", "--replicates", "2",
                            "--out", "runs", code=4)
    elif command == "margins":
        _, built, _ = probe(tmp_path, *cohort_argv(tmp_path, "margins"))
    else:
        from test_cli import cached_command

        argv, _ = cached_command(tmp_path, command)
        _, built, _ = probe(tmp_path, *argv, "--out", "runs")
    assert {name.removeprefix("panelcal.") for name in built} == BUILT[command]
    assert len(built) == count


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


# the panelcal modules, besides the package, each JSONL command loads on a column-cache hit
HIT_MODULES = {
    "detector-eval": {"cli", "rules", "cli_detector", "metrics", "writers", "tables", "rundir", "cache",
                      "reader"},
    "review": {"cli", "rules", "cli_detector", "metrics", "writers", "tables", "rundir", "cache", "reader",
               "cli_panels", "aggregate", "config", "core"},
    "calibrate": {"cli", "rules", "cli_calibrate", "writers", "tables", "rundir", "cache", "reader", "bounds",
                  "calibrate", "config", "core"},
}
HIT_MODULES["bayes"] = HIT_MODULES["review"] - {"cli_detector", "metrics"} | {"bayes"}


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval", "calibrate"])
def test_a_cache_hit_loads_no_parser(tmp_path, command):
    # the second run into one --out finds its input in the column cache; only a miss imports records
    from test_cli import cached_command

    argv, _ = cached_command(tmp_path, command)
    miss, hit = (loaded(tmp_path, *argv, "--out", "runs") for _ in range(2))
    expected = {"panelcal", *(f"panelcal.{name}" for name in HIT_MODULES[command])}
    assert {m for m in hit if m.startswith("panelcal")} == expected
    assert {m for m in miss if m.startswith("panelcal")} == expected | {"panelcal.records"}


@pytest.mark.parametrize("experiment", ["margins", "variance"])
def test_cohort_experiments_load_the_run_directory(tmp_path, experiment):
    modules = loaded(tmp_path, *cohort_argv(tmp_path, experiment))
    assert {"panelcal.cli_simulate", "panelcal.rundir", "panelcal.experiments", "panelcal.bounds"} <= modules


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

    for name in rules.__all__:
        assert getattr(core, name) is getattr(rules, name)
    assert set(rules.__all__) <= set(core.__all__)
    assert records.RecordError is rules.RecordError
    assert calibrate.ThresholdUnreachableError is rules.ThresholdUnreachableError
    assert issubclass(rules.RecordError, ValueError)
    assert issubclass(rules.ThresholdUnreachableError, ValueError)


# the modules that core, aggregate, records, calibrate, simulate, metrics and bayes export names from, each
# imported on first use (core's NoiseProfile and GaussianPosterior load simulate and bayes, which a command may run)
LAZY_MODULES = ("panelcal.objects", "panelcal.weights", "panelcal.isotonic", "panelcal.strata",
                "panelcal.experiments")
EXPORTERS = ("core", "aggregate", "records", "calibrate", "simulate", "bayes", "rules", "tables", "objects",
             "weights", "isotonic", "strata", "experiments", "metrics", "reader", "writers")
# each name that core, aggregate, metrics or bayes exports from another module, and that module
MOVED = {
    "core": {"NoiseProfile": "simulate", "GaussianPosterior": "bayes", "ReviewerWeights": "weights",
             "BoundInputs": "weights", "ConfusionCounts": "objects", "left_sum": "weights"},
    "aggregate": {name: "objects" for name in ("ConsensusRubric", "Decision", "consensus_rubric", "score", "decide",
                                               "gls_weights", "panel_variance")},
    "metrics": {name: "objects" for name in ("ConfusionCounts", "DetectorMetrics", "acpt", "icr_per_model",
                                             "icr_any", "conflict_rate", "detector_counts", "detector_metrics")},
    "bayes": {name: "objects" for name in ("posterior_update", "acceptance_probability", "credible_robust",
                                           "solicit_worthwhile")},
}


@pytest.mark.parametrize("first", [
    "import panelcal.objects",
    "from panelcal.core import ReviewPanel",
    "from panelcal.bayes import posterior_update",
    "from panelcal.aggregate import gls_weights",
    "from panelcal.metrics import icr_any",
])
def test_the_object_layer_resolves_whichever_module_is_imported_first(tmp_path, first):
    # objects imports the kernel modules at its top, and each of them exports objects' names lazily
    probe = (f"{first}\n"
             "import json, panelcal.aggregate, panelcal.bayes, panelcal.core, panelcal.metrics, panelcal.objects\n"
             "from panelcal import aggregate, bayes, core, metrics, objects\n"
             "pairs = [(core.ReviewPanel, objects.ReviewPanel), (bayes.posterior_update, objects.posterior_update),\n"
             "         (aggregate.gls_weights, objects.gls_weights), (metrics.icr_any, objects.icr_any)]\n"
             "print(json.dumps([a is b for a, b in pairs]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [True] * 4


def test_import_panelcal_core_builds_no_record_class(tmp_path):
    probe = ("import json, sys, panelcal.core as core\n"
             "names = ('RubricVector', 'ReviewRecord', 'ReviewPanel', 'CalibrationRecord')\n"
             "print(json.dumps(['panelcal.objects' in sys.modules, [n for n in names if n in vars(core)]]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [False, []]


def test_object_adapters_load_no_jsonl_loader(tmp_path):
    # PanelTable.from_panels builds its columns in tables, where the table class lives
    probe = ("import json, sys\n"
             "from panelcal import metrics\n"
             "from panelcal.core import ReviewPanel, ReviewRecord, RubricVector\n"
             "panel = ReviewPanel('p1', (ReviewRecord('m1', RubricVector((5.0,)), True),))\n"
             "rate = metrics.icr_any([panel])\n"
             "print(json.dumps([rate, 'panelcal.records' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, check=True)
    assert json.loads(proc.stdout) == [1.0, False]


def test_from_imports_and_dunder_lookups_load_no_lazy_module(tmp_path):
    # a from-import looks up the module's __path__; a __getattr__ that resolved dunder names would
    # load its lazy modules on every one
    probe = ("import json, sys\n"
             "from panelcal.core import RecordError, NoiseProfile\n"
             "from panelcal.aggregate import consensus_rows\n"
             "from panelcal.records import PanelTable\n"
             "from panelcal.calibrate import TailCounts\n"
             "from panelcal.simulate import generate_cohort\n"
             "from panelcal.metrics import confusion_counts, detector_rates\n"
             "from panelcal.bayes import GaussianPosterior, credible_calls\n"
             "import panelcal.core, panelcal.aggregate, panelcal.records, panelcal.calibrate, panelcal.simulate\n"
             "modules = [panelcal.core, panelcal.aggregate, panelcal.records, panelcal.calibrate, panelcal.simulate,\n"
             "           panelcal.metrics, panelcal.bayes]\n"
             "paths = [hasattr(m, '__path__') for m in modules]\n"
             "print(json.dumps([paths, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=_env(), capture_output=True,
                          text=True, check=True)
    paths, modules = json.loads(proc.stdout)
    assert paths == [False] * 7
    # importing metrics or bayes, and their kernels, loads no object layer
    assert not set(modules) & {*LAZY_MODULES, "panelcal.bounds"}


def test_every_exported_name_is_one_object_wherever_it_is_exported():
    seen = {}
    for name in EXPORTERS:
        module = importlib.import_module(f"panelcal.{name}")
        assert set(module.__all__) <= set(dir(module))
        for export in module.__all__:
            value = getattr(module, export)
            assert seen.setdefault(export, value) is value, f"panelcal.{name}.{export}"
    assert seen["ReviewPanel"] is sys.modules["panelcal.objects"].ReviewPanel
    assert seen["IsotonicCurve"] is sys.modules["panelcal.isotonic"].IsotonicCurve
    assert seen["CellQuota"] is sys.modules["panelcal.strata"].CellQuota
    assert seen["MarginBinRow"] is sys.modules["panelcal.experiments"].MarginBinRow
    assert seen["PanelTable"] is sys.modules["panelcal.tables"].PanelTable
    assert seen["ConfusionCounts"] is sys.modules["panelcal.objects"].ConfusionCounts
    assert seen["load_config"] is sys.modules["panelcal.reader"].load_config
    assert seen["csv_text"] is sys.modules["panelcal.writers"].csv_text
    for exporter, homes in MOVED.items():
        for name, home in homes.items():
            home_module = sys.modules[f"panelcal.{home}"]
            assert name in home_module.__all__
            assert name in dir(sys.modules[f"panelcal.{exporter}"])
            assert getattr(sys.modules[f"panelcal.{exporter}"], name) is getattr(home_module, name) is seen[name]


@pytest.mark.parametrize("name", ["core", "aggregate", "records", "calibrate", "simulate", "metrics", "bayes"])
def test_lazy_exporters_refuse_unknown_and_dunder_names(name):
    module = importlib.import_module(f"panelcal.{name}")
    assert not hasattr(module, "__path__")
    with pytest.raises(AttributeError, match=f"module 'panelcal.{name}' has no attribute 'nope'"):
        module.nope
