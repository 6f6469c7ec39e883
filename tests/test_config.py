"""The config boundary: strict key spec, unknown keys, README reference, fuzzing.

The fuzz strategies are derived from ``panelcal.config``'s spec: every
section draws its required keys and some optional ones, each value is
mostly valid and sometimes any JSON value, and now and then one key is
misspelled.  ``LEAVES`` gives a valid value per leaf parser and
``OVERRIDES`` narrows some key paths, keeping cohorts small, rubrics the
size of the test panels and the latent and functional objects whole.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from panelcal import config
from panelcal.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

PANELS = """\
{"id": "p1", "label": true, "reviews": [{"reviewer": "m1", "rubric": [6, 8], "flag": false}, {"reviewer": "m2", "rubric": [8, 6], "flag": true}]}
{"id": "p2", "label": false, "reviews": [{"reviewer": "m1", "rubric": [3, 4], "flag": false}, {"reviewer": "m2", "rubric": [4, 4], "flag": false}]}
{"id": "p3", "label": true, "reviews": [{"reviewer": "m1", "rubric": [9, 8], "flag": true}, {"reviewer": "m3", "rubric": [8, 10], "flag": true}]}
"""
THRESHOLDS = {"tau_rate": 7.0, "tau_05": 4.0, "target_rate": 0.3, "calibration_size": 6}
POOL = "".join(
    json.dumps({"id": f"c{i}", "score": float(i), "accept": i > 3, "status": "accept"}) + "\n"
    for i in range(1, 9)
)
COHORT = {
    "n_papers": 200, "m_reviewers": 3,
    "latent": {"kind": "uniform", "lo": 4.0, "hi": 7.0},
    "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
    "seed": 7,
}
POPULATION = {
    "size": 300, "m_reviewers": 2,
    "latent": {"kind": "gaussian", "mean": 6.0, "sd": 1.5},
    "noise": {"per_reviewer_variance": [1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
    "link_midpoint": 6.0, "link_slope": 2.0, "seed": 3,
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, obj):
    return write(tmp_path, name, json.dumps(obj) + "\n")


def run(argv, tmp_path):
    """Exit code and stderr of one in-process run, checked against the exit contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--out", str(tmp_path / "runs")])
    assert code in (0, 2, 3, 4)
    assert (tmp_path / "runs").exists() == (code in (0, 4))
    if code in (2, 3):
        assert err.getvalue().startswith("error: ")
    return code, err.getvalue()


# ---------------------------------------------------------------- strict keys


@pytest.mark.parametrize(
    ("command", "config_obj", "message"),
    [
        ("calibrate", {"target_rate": 0.3, "delat": 0.05, "stratfy": {}},
         "config: delat: unknown key (did you mean 'delta'?)"),
        ("review", {"schema": {"criteria_count": 2.9, "bounds": [[1, 10], [1, 10]]}},
         "config: schema.criteria_count: must be an integer, got 2.9"),
        ("review", {"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]],
                               "overall_index": True}},
         "config: schema.overall_index: must be an integer, got True"),
        ("review", {"schema": {"criteria_count": 2, "bounds": [[1, "10"], [1, 10]]}},
         "config: schema.bounds: must be a list of [lo, hi] pairs, got [[1, '10'], [1, 10]]"),
        ("review", {"functional": {"kind": "linear", "coefficients": [True, "0.5"]}},
         "config: functional.coefficients: must be a list of numbers, got [True, '0.5']"),
        ("review", {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]},
                    "bayes": {"prior_meen": 5.0}},
         "config: bayes.prior_meen: unknown key (did you mean 'prior_mean'?)"),
        ("margins", {"simulate": {"margins": {"threshold": True, "m_grid": [1, 2]}}},
         "config: simulate.margins.threshold: must be finite, got True"),
        ("threshold-error",
         {"simulate": {"threshold_error": {"population": dict(POPULATION, clip_modee="clip")}}},
         "config: simulate.threshold_error.population.clip_modee: unknown key "
         "(did you mean 'clip_mode'?)"),
        ("threshold-error",
         {"simulate": {"threshold_error": {"population": dict(POPULATION, link_midpoint=True)}}},
         "config: simulate.threshold_error.population.link_midpoint: must be a number, got True"),
        ("threshold-error", {"simulate": {"threshold_error": {"population": dict(
            POPULATION, latent={"kind": "uniform", "lo": "2", "hi": 9.0})}}},
         "config: simulate.threshold_error.population.latent.lo: must be a number, got '2'"),
        ("variance", {"simulate": {"variance": {"spec": dict(
            COHORT, latent={"kind": "uniform", "lo": 4.0, "hi": 7.0, "sd": 1.0})}}},
         "config: simulate.variance.spec.latent.sd: not a key of a uniform latent"),
        ("bayes", {"bayes": {"prior_mean": 5.0, "prior_variance": 1.0, "threshold": "tau_50"},
                   "functional": {"kind": "linear", "coefficients": [0.5, 0.5]}},
         "config: bayes.threshold: must be 'tau_rate', 'tau_05', or a number, got 'tau_50'"),
        ("review", {"schema": {"criteria_count": 2, "bounds": [[5, 1], [1, 10]]}},
         "config: schema.bounds[0]: lower bound must be strictly below upper, got (5.0, 1.0)"),
        # checks that a domain type or an experiment makes after the walk
        ("margins", {"simulate": {"margins": {"bin_edges": [-1, 1]}}},
         "config: simulate.margins.bin_edges: margins are non-negative; first edge must be >= 0, "
         "got [-1.0, 1.0]"),
        ("bayes", {"bayes": {"prior_mean": 5.0, "prior_variance": -1},
                   "functional": {"kind": "linear", "coefficients": [0.5, 0.5]}},
         "config: bayes.prior_variance: must be finite and > 0, got -1.0"),
        ("bayes", {"bayes": {"prior_mean": 5.0, "prior_variance": -10**400},
                   "functional": {"kind": "linear", "coefficients": [0.5, 0.5]}},
         "config: bayes.prior_variance: must be finite and > 0, got -inf"),
        ("threshold-error", {"simulate": {"threshold_error": {"population": dict(POPULATION, size=0)}}},
         "config: simulate.threshold_error.population.size: must be an integer >= 1, got 0"),
        ("review", {"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]], "overall_index": 1},
                    "functional": {"kind": "overall_pick", "coefficients": [1]}},
         "config: functional.coefficients: must be absent for the overall_pick variant"),
        ("variance", {"simulate": {"variance": {"spec": dict(COHORT, n_papers=1)}}},
         "config: simulate.variance.spec.n_papers: a variance needs at least 2 papers, got 1"),
    ],
    ids=["calibrate-typos", "criteria-count-float", "overall-index-bool", "bound-string",
         "coefficients-bool-and-string", "other-command-typo", "margins-threshold-bool",
         "clip-mode-typo", "link-midpoint-bool", "latent-lo-string", "latent-other-kind",
         "bayes-threshold-word", "schema-range", "negative-margin-edge", "prior-variance",
         "prior-variance-beyond-float", "population-size", "overall-pick-coefficients",
         "one-paper-variance"],
)
def test_bad_config_exits_2_naming_the_key_path(tmp_path, command, config_obj, message):
    argv = {
        "calibrate": ["calibrate", "--records", write(tmp_path, "pool.jsonl", POOL)],
        "review": ["review", "--panels", write(tmp_path, "panels.jsonl", PANELS),
                   "--thresholds", write_json(tmp_path, "thresholds.json", THRESHOLDS)],
        "bayes": ["bayes", "--panels", write(tmp_path, "panels.jsonl", PANELS)],
        "margins": ["simulate", "margins"],
        "threshold-error": ["simulate", "threshold-error"],
        "variance": ["simulate", "variance"],
    }[command]
    code, err = run([*argv, "--config", write_json(tmp_path, "config.json", config_obj)], tmp_path)
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    ("latent", "message"),
    [
        ('{"kind": "uniform", "lo": 7, "hi": 4}', "lo: uniform needs lo < hi, got (7.0, 4.0)"),
        ('{"kind": "uniform", "lo": 4, "hi": 1e400}', "hi: must be finite, got inf"),
        ('{"kind": "gaussian", "mean": -1e400, "sd": 1}', "mean: must be finite, got -inf"),
        ('{"kind": "gaussian", "mean": 5, "sd": 0}', "sd: must be finite and > 0, got 0.0"),
    ],
    ids=["uniform-reversed", "uniform-hi-overflows", "gaussian-mean-overflows", "gaussian-sd-zero"],
)
def test_latent_errors_name_the_bad_key(tmp_path, latent, message):
    # these once named the dataclass field param_a, and blamed lo for a bad hi
    text = json.dumps({"simulate": {"variance": {"spec": dict(COHORT, latent=None)}}})
    config_file = write(tmp_path, "config.json", text.replace('"latent": null', f'"latent": {latent}') + "\n")
    code, err = run(["simulate", "variance", "--config", config_file], tmp_path)
    assert code == 2
    assert err == f"error: config: simulate.variance.spec.latent.{message}\n"


def test_strict_thresholds_file(tmp_path):
    panels = write(tmp_path, "panels.jsonl", PANELS)
    cfg = write_json(tmp_path, "config.json", {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]}})
    for data, message in [
        ({"tau_rate": "4", "tau_05": True, "calibration_size": 2.5}, "tau_rate: must be a number, got '4'"),
        (dict(THRESHOLDS, tau_05=True), "tau_05: must be a number, got True"),
        (dict(THRESHOLDS, calibration_size=2.5), "calibration_size: must be an integer, got 2.5"),
        (dict(THRESHOLDS, tau_05b=1), "tau_05b: unknown key (did you mean 'tau_05'?)"),
        ({k: v for k, v in THRESHOLDS.items() if k != "target_rate"}, "target_rate: required"),
        ([1, 2], "top level must be a JSON object"),
    ]:
        thresholds = write_json(tmp_path, "thresholds.json", data)
        code, err = run(["review", "--panels", panels, "--thresholds", thresholds, "--config", cfg],
                        tmp_path)
        assert code == 2
        assert err == f"error: {thresholds}: {message}\n"
    # Infinity stays a valid tau_rate, and calibrate's own keys are known
    thresholds = write(tmp_path, "thresholds.json", json.dumps(
        dict(THRESHOLDS, stratified=True, seed=3)).replace("7.0", "Infinity"))
    code, _ = run(["review", "--panels", panels, "--thresholds", thresholds, "--config", cfg], tmp_path)
    assert code == 0


def test_keys_of_other_commands_are_allowed(tmp_path):
    # one file for every command: each reads its own keys and ignores the rest
    shared = {
        "target_rate": 0.3,
        "schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]},
        "weights": "gls",
        "gls_variances": {"m1": 1.0, "m2": 2.0, "m3": 0.5},
        "bayes": {"prior_mean": 5.0, "prior_variance": 4.0, "review_variances": {"default": 1.0}},
        "simulate": {"threshold_error": {"population": POPULATION, "n_cal_grid": [20, 40],
                                         "replicates": 4}},
    }
    cfg = write_json(tmp_path, "config.json", shared)
    panels = write(tmp_path, "panels.jsonl", PANELS)
    thresholds = write_json(tmp_path, "thresholds.json", THRESHOLDS)
    for argv in (
        ["calibrate", "--records", write(tmp_path, "pool.jsonl", POOL)],
        ["review", "--panels", panels, "--thresholds", thresholds],
        ["bayes", "--panels", panels, "--thresholds", thresholds],
        ["simulate", "threshold-error"],
    ):
        code, err = run([*argv, "--config", cfg], tmp_path)
        assert code in (0, 4), err
    # a key another command reads is not parsed here: calibrate runs with a broken bayes section
    broken = write_json(tmp_path, "broken.json", dict(shared, bayes={"prior_mean": "x"}))
    code, _ = run(["calibrate", "--records", write(tmp_path, "pool.jsonl", POOL), "--config", broken],
                  tmp_path)
    assert code == 0


# ---------------------------------------------------------------- README


def key_paths(section, prefix=""):
    """Every key path of ``section``; cohort and population specs are listed on their own."""
    for key, (node, _) in section.keys.items():
        yield prefix + key
        if isinstance(node, config.Section) and node is not config.COHORT and node is not config.POPULATION:
            yield from key_paths(node, f"{prefix}{key}.")


def readme_tables():
    """Key paths in the first column of each table under the README's Config reference."""
    text = README.read_text(encoding="utf-8")
    reference = text.split("\n## Config reference\n")[1].split("\n## ")[0]
    tables = {}
    for part in reference.split("\n### ")[1:]:
        heading, _, body = part.partition("\n")
        tables[heading] = set(re.findall(r"^\| `([^`]+)` \|", body, flags=re.MULTILINE))
    return tables


def test_readme_lists_the_spec_keys():
    tables = readme_tables()
    assert tables["Keys"] == set(key_paths(config.SPEC))
    assert tables["Cohort spec"] == set(key_paths(config.COHORT))
    population = set(key_paths(config.POPULATION))
    assert tables["Population spec"] == population - set(key_paths(config.COHORT))
    assert population >= set(key_paths(config.COHORT)) - {"n_papers"}


# ---------------------------------------------------------------- fuzzing


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 9), st.floats(-1.0, 10.0), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
SCORES = st.floats(1.0, 10.0)
# a valid value of each leaf parser of the spec
LEAVES = {
    config.number: SCORES,
    config.finite: SCORES,
    config.positive: st.floats(0.1, 4.0),
    config.non_negative: st.floats(0.0, 4.0),
    config.probability: st.floats(0.01, 0.99),
    config.integer(): st.integers(1, 4),
    config.integer(0): st.integers(0, 100),
    config.integer(1): st.integers(1, 8),
    config.integer(2): st.integers(2, 6),
    config.string: st.text(max_size=4),
    config.boolean: st.booleans(),
    config.integers: st.lists(st.integers(1, 4), min_size=1, max_size=3),
    config.numbers: st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
    config.pair: st.tuples(st.floats(1.0, 3.0), st.floats(8.0, 10.0)).map(list),
    config.strings: st.lists(st.text(max_size=4), max_size=3),
    config.threshold: st.one_of(st.sampled_from(["tau_rate", "tau_05"]), SCORES),
}
# key-path suffix -> valid values
OVERRIDES = {
    "schema.criteria_count": st.just(2),
    "schema.bounds": st.just([[1.0, 10.0], [1.0, 10.0]]),
    "schema.overall_index": st.sampled_from([0, 1]),
    "functional": st.one_of(
        st.fixed_dictionaries({"kind": st.just("linear"),
                               "coefficients": st.lists(st.floats(0.1, 1.0), min_size=2, max_size=2)}),
        st.just({"kind": "overall_pick"}),
    ),
    "n_papers": st.integers(1, 200),
    "size": st.integers(2, 300),
    "m_reviewers": st.integers(1, 3),
    "latent": st.one_of(
        st.fixed_dictionaries({"kind": st.just("uniform"), "lo": st.floats(2.0, 5.0),
                               "hi": st.floats(5.0, 9.0)}),
        st.fixed_dictionaries({"kind": st.just("gaussian"), "mean": st.floats(3.0, 8.0),
                               "sd": st.floats(0.5, 2.0)}),
    ),
    "noise.scalar_bounds": st.just([1.0, 10.0]),
    "clip_mode": st.sampled_from(["clip", "none", "reject-resample"]),
    "n_cal_grid": st.lists(st.integers(2, 150), min_size=2, max_size=3, unique=True).map(sorted),
    "replicates": st.integers(2, 8),
    "bin_edges": st.lists(st.floats(0.0, 2.0), min_size=2, max_size=4, unique=True).map(sorted),
    "status_vocabulary": st.lists(st.sampled_from(["accept", "reject", "hold"]), min_size=1, unique=True),
}
# always drawn, so a run never falls back to the large reference cohort or population
ALWAYS = ("spec", "population")
REVIEWERS = ["m1", "m2", "m3"]


def mostly(valid):
    """``valid`` or, in a minority of draws, any JSON value."""
    return st.integers(0, 9).flatmap(lambda k: JSON_VALUES if k == 0 else valid)


def override(path):
    return next((s for key, s in OVERRIDES.items() if path == key or path.endswith("." + key)), None)


def misspelled(data, section):
    """``data`` with one key, or one of ``section``'s keys, misspelled."""
    keys = sorted(data) or sorted(section.keys)
    return st.tuples(st.sampled_from(keys), st.booleans()).map(
        lambda pick: {**{k: v for k, v in data.items() if k != pick[0]},
                      pick[0] + pick[0][-1] if pick[1] else pick[0][:-1]: data.get(pick[0], 1)}
    )


def values(node, path=""):
    """A strategy for ``node`` at key ``path``, derived from the spec."""
    valid = override(path)
    if valid is None and isinstance(node, config.Section):
        required, optional = {}, {}
        for key, (child, default) in node.keys.items():
            where = f"{path}.{key}" if path else key
            always = default is config.REQUIRED or key in ALWAYS or override(where) is not None
            target = required if always else optional
            target[key] = values(child, where)
        drawn = st.fixed_dictionaries(required, optional=optional)
        objects = st.integers(0, 19).flatmap(
            lambda k: drawn.flatmap(lambda data: misspelled(data, node)) if k == 0 else drawn
        )
        return mostly(objects) if path else objects
    if valid is None and isinstance(node, config.ReviewerMap):
        leaf = LEAVES[node.value]
        valid = st.fixed_dictionaries(dict.fromkeys(REVIEWERS, leaf), optional={"default": leaf})
        if node.words:
            valid = st.one_of(st.sampled_from(node.words), valid)
    return mostly(LEAVES[node] if valid is None else valid)


def command_spec(*keys):
    """The top-level keys one command reads, required so each draw exercises them."""
    return config.Section({key: (config.SPEC.keys[key][0], config.REQUIRED) for key in keys})


def simulate_spec(experiment):
    section = config.SIMULATE.keys[experiment][0]
    return config.Section({"simulate": (config.Section({experiment: (section, config.REQUIRED)}),
                                        config.REQUIRED)})


FUZZ_CONFIGS = {
    "review": values(command_spec("schema", "functional", "weights", "gls_variances")),
    "bayes": values(command_spec("schema", "functional", "bayes")),
    "margins": values(simulate_spec("margins")),
    "threshold-error": values(simulate_spec("threshold_error")),
    "variance": values(simulate_spec("variance")),
}


def fuzz_command(command, config_obj):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        panels = write(tmp_path, "panels.jsonl", PANELS)
        thresholds = write_json(tmp_path, "thresholds.json", THRESHOLDS)
        argv = {
            "review": ["review", "--panels", panels, "--thresholds", thresholds],
            "bayes": ["bayes", "--panels", panels, "--thresholds", thresholds],
        }.get(command, ["simulate", command])
        return run([*argv, "--config", write_json(tmp_path, "config.json", config_obj)], tmp_path)


@given(FUZZ_CONFIGS["review"])
@example({"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]}, "weights": "gls",
          "gls_variances": {"m1": 1.0, "m2": 2.0, "m3": 1.0}})
def test_review_config_fuzz(config_obj):
    fuzz_command("review", config_obj)


@given(FUZZ_CONFIGS["bayes"])
@example({"functional": {"kind": "linear", "coefficients": [0.5, 0.5]},
          "bayes": {"prior_mean": 5.0, "prior_variance": 4.0, "review_variances": {"default": 1.0}}})
def test_bayes_config_fuzz(config_obj):
    fuzz_command("bayes", config_obj)


@given(FUZZ_CONFIGS["margins"])
@example({"simulate": {"margins": {"spec": COHORT, "m_grid": [1, 3]}}})
def test_simulate_margins_config_fuzz(config_obj):
    fuzz_command("margins", config_obj)


@given(FUZZ_CONFIGS["threshold-error"])
@example({"simulate": {"threshold_error": {"population": POPULATION, "n_cal_grid": [20, 80],
                                           "replicates": 5}}})
def test_simulate_threshold_error_config_fuzz(config_obj):
    fuzz_command("threshold-error", config_obj)


@given(FUZZ_CONFIGS["variance"])
@example({"simulate": {"variance": {"spec": COHORT, "m_grid": [1, 2]}}})
def test_simulate_variance_config_fuzz(config_obj):
    fuzz_command("variance", config_obj)


REVIEW = st.fixed_dictionaries(
    {"reviewer": st.sampled_from(["m1", "m2", "m3"]),
     "rubric": st.lists(st.one_of(st.integers(1, 10), SCORES), min_size=2, max_size=2),
     "flag": st.booleans()},
    optional={"feedback": st.text(max_size=3)},
)
GOOD_PANEL = st.fixed_dictionaries(
    {"reviews": st.lists(REVIEW, min_size=1, max_size=3, unique_by=lambda r: r["reviewer"]),
     "label": st.booleans()}
)
PANEL_FIELDS = {
    "id": st.one_of(st.sampled_from(["p0", ""]), JSON_VALUES),
    "reviews": st.one_of(st.lists(st.one_of(REVIEW, JSON_VALUES), max_size=3), JSON_VALUES),
    "label": st.one_of(st.booleans(), JSON_VALUES),
}
# a panel without its id (the test numbers it), or a line that may be broken
PANEL_ENTRY = st.integers(0, 5).flatmap(
    lambda k: GOOD_PANEL if k else st.one_of(
        st.fixed_dictionaries({}, optional=PANEL_FIELDS).map(json.dumps),
        st.sampled_from(["", "[1]", "null", "{broken", '{"id": "p1"} {}']),
        st.text(max_size=6),
    )
)


@given(st.lists(PANEL_ENTRY, max_size=6), st.sampled_from(["review", "detector-eval"]))
def test_panel_file_fuzz(entries, command):
    lines = [
        json.dumps({"id": f"p{i}", **entry}) if isinstance(entry, dict) else entry
        for i, entry in enumerate(entries)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        argv = [command, "--panels", write(tmp_path, "panels.jsonl", "\n".join(lines) + "\n")]
        if command == "review":
            argv += ["--thresholds", write_json(tmp_path, "thresholds.json", THRESHOLDS),
                     "--config", write_json(tmp_path, "config.json", {"schema": {
                         "criteria_count": 2, "bounds": [[1, 10], [1, 10]]}})]
        run(argv, tmp_path)
