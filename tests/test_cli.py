import collections
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelcal import calibrate, metrics
from panelcal.cli import main
from panelcal.core import CalibrationRecord
from panelcal.records import load_calibration_records

POOL = """\
{"id": "c1", "score": 2.0, "accept": false, "status": "reject"}
{"id": "c2", "score": 3.0, "accept": false, "status": "reject"}
{"id": "c3", "score": 4.0, "accept": true, "status": "accept"}
{"id": "c4", "score": 5.0, "accept": true, "status": "accept"}
{"id": "c5", "score": 6.0, "accept": false, "status": "reject"}
{"id": "c6", "score": 7.0, "accept": true, "status": "accept"}
"""

PANELS = """\
{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [6, 8], "flag": false}, {"reviewer": "m2", "rubric": [8, 6], "flag": true}]}
{"id": "p2", "reviews": [{"reviewer": "m1", "rubric": [3, 4], "flag": false}, {"reviewer": "m2", "rubric": [4, 4], "flag": false}]}
{"id": "p3", "reviews": [{"reviewer": "m1", "rubric": [9, 8], "flag": true}, {"reviewer": "m3", "rubric": [8, 10], "flag": true}]}
"""

STRATIFY = {"n_cal": 4, "bin_edges": [0.0, 5.0, 8.0], "status_vocabulary": ["accept", "reject"]}

THRESHOLDS = '{"tau_rate": 7.0, "tau_05": 4.0, "target_rate": 0.3, "calibration_size": 6}\n'

SMALL_POPULATION = {
    "size": 4000,
    "m_reviewers": 3,
    "latent": {"kind": "uniform", "lo": 2.0, "hi": 9.0},
    "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
    "clip_mode": "clip",
    "link_midpoint": 7.6,
    "link_slope": 2.5,
    "seed": 7,
}

COHORT_SPEC = {
    "n_papers": 3000,
    "m_reviewers": 3,
    "latent": {"kind": "uniform", "lo": 4.0, "hi": 7.0},
    "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
    "seed": 7,
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, obj):
    return write(tmp_path, name, json.dumps(obj) + "\n")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_dir(out_text):
    match = re.search(r"run directory: (.+)", out_text)
    assert match, f"no run directory line in output: {out_text!r}"
    return Path(match.group(1))


# ---------------------------------------------------------------- bound


def test_bound_values(capsys):
    cases = [
        (["bound", "dkw", "--n", "200", "--delta", "0.05"], "0.104666"),
        (["bound", "scalar", "--m", "3", "--gamma", "1", "--sigma-sq", "1", "--range", "9"], "0.687289"),
        (["bound", "tail", "--t", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
        (["bound", "margin", "--gamma", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
        (["bound", "tau05", "--eps-pi", "0.1", "--c-min", "0.4", "--flat-width", "1"], "1.25"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip() == expected


def test_bound_rejects_bad_delta(capsys):
    code, _, err = run_cli(capsys, "bound", "dkw", "--n", "200", "--delta", "1.5")
    assert code == 2
    assert "delta" in err


# ---------------------------------------------------------------- calibrate


def test_calibrate_golden(tmp_path, capsys):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33})
    code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)

    thresholds = json.loads((d / "thresholds.json").read_text())
    assert thresholds == {
        "tau_rate": 6.0,
        "tau_05": 2.0,
        "target_rate": 0.33,
        "calibration_size": 6,
        "stratified": False,
        "seed": None,
    }

    assert (d / "curve.csv").read_text() == (
        "threshold,raw_estimate,fitted,weight\n"
        "2.0,0.5,0.5,6.0\n"
        "3.0,0.6,0.6,5.0\n"
        "4.0,0.75,0.6666666666666666,4.0\n"
        "5.0,0.6666666666666666,0.6666666666666666,3.0\n"
        "6.0,0.5,0.6666666666666666,2.0\n"
        "7.0,1.0,1.0,1.0\n"
    )

    report = (d / "calibration_report.txt").read_text()
    assert "tau_rate:            6" in report
    assert "achieved rate:       0.333333  (2/6)" in report
    assert "rate error bound:    0.604292  (delta=0.05)" in report


def test_calibrate_run_dir_and_manifest(tmp_path, capsys):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33})
    code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--seed", "9", "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)
    assert re.fullmatch(r"calibrate-\d{8}T\d{6}Z-[0-9a-f]{8}(-\d+)?", d.name)

    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["command"] == "calibrate"
    assert manifest["seed"] == 9
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_digest"])
    assert list(manifest["input_digests"]) == [pool]
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", manifest["started_at"])
    assert manifest["finished_at"] >= manifest["started_at"]
    on_disk = {p.name for p in d.iterdir() if p.name != "manifest.json"}
    assert set(manifest["output_digests"]) == on_disk


def test_calibrate_stratified_deterministic(tmp_path, capsys):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(
        tmp_path,
        "config.json",
        {
            "target_rate": 0.33,
            "stratify": {
                "n_cal": 4,
                "bin_edges": [0.0, 5.0, 8.0],
                "status_vocabulary": ["accept", "reject"],
            },
        },
    )
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                               "--seed", "3", "--out", str(tmp_path / "runs"))
        assert code == 0
        outs.append(run_dir(out))
    first, second = outs
    assert first != second

    plan = json.loads((first / "plan.json").read_text())
    assert sum(c["quota"] for c in plan["cells"]) == 4
    assert [c["quota"] for c in plan["cells"]] == [1, 1, 1, 1]
    thresholds = json.loads((first / "thresholds.json").read_text())
    assert thresholds["stratified"] is True
    assert thresholds["seed"] == 3
    assert thresholds["calibration_size"] == 4

    for name in ("thresholds.json", "plan.json", "curve.csv", "calibration_report.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_calibrate_fits_and_bins_once(tmp_path, capsys, monkeypatch):
    calls = collections.Counter()
    for name in ("_pava", "tail_probability_points", "_cell_members"):

        def counted(*args, _name=name, _original=getattr(calibrate, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(calibrate, name, counted)
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33, "stratify": STRATIFY})
    code, _, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                         "--seed", "3", "--out", str(tmp_path / "runs"))
    assert code == 0
    assert calls == {"_pava": 1, "tail_probability_points": 1, "_cell_members": 1}


def test_calibrate_infeasible_exits_3(tmp_path, capsys):
    pool = write(
        tmp_path,
        "pool.jsonl",
        '{"id": "c1", "score": 2.0, "accept": false, "status": "reject"}\n'
        '{"id": "c2", "score": 3.0, "accept": false, "status": "reject"}\n',
    )
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33})
    code, _, err = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 3
    assert err == (
        "error: calibration infeasible: fitted curve never reaches 0.5 (max fitted value 0)\n"
    )
    assert not (tmp_path / "runs").exists()


def test_threshold_error_every_replicate_failing_exits_3(tmp_path, capsys):
    population = dict(SMALL_POPULATION, size=2000, link_midpoint=8.5)
    config = write_json(tmp_path, "config.json",
                        {"simulate": {"threshold_error": {"population": population}}})
    code, out, err = run_cli(capsys, "simulate", "threshold-error", "--config", config,
                             "--grid", "2", "--replicates", "2", "--out", str(tmp_path / "runs"))
    assert code == 3
    assert out == ""
    assert err == "error: calibration infeasible: n_cal=2: every replicate failed to reach 1/2\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    ("config", "message"),
    [
        ({}, "config: target_rate: required"),
        ({"target_rate": "x"}, "config: target_rate: must lie strictly in (0, 1), got 'x'"),
        ({"target_rate": 1.5}, "config: target_rate: must lie strictly in (0, 1), got 1.5"),
        ({"target_rate": 0.3, "delta": 1.5}, "config: delta: must lie strictly in (0, 1), got 1.5"),
        ({"target_rate": 0.3, "stratify": [4]}, "config: stratify: must be an object"),
        ({"target_rate": 0.3, "stratify": dict(STRATIFY, n_cal="x")},
         "config: stratify.n_cal: must be an integer >= 1, got 'x'"),
        ({"target_rate": 0.3, "stratify": dict(STRATIFY, n_cal=True)},
         "config: stratify.n_cal: must be an integer >= 1, got True"),
        ({"target_rate": 0.3, "stratify": {"n_cal": 4, "status_vocabulary": ["accept"]}},
         "config: stratify.bin_edges: required"),
        ({"target_rate": 0.3, "stratify": dict(STRATIFY, bin_edges=[5.0, 0.0])},
         "config: stratify.bin_edges: must be strictly increasing, got [5.0, 0.0]"),
        ({"target_rate": 0.3, "stratify": dict(STRATIFY, bin_edges=[])},
         "config: stratify.bin_edges: must be a list of at least 2 numbers, got []"),
        ({"target_rate": 0.3, "stratify": dict(STRATIFY, status_vocabulary="accept")},
         "config: stratify.status_vocabulary: must be a list of strings, got 'accept'"),
    ],
    ids=["no-rate", "rate-string", "rate-above-1", "delta-above-1", "stratify-list",
         "n-cal-string", "n-cal-bool", "no-edges", "edges-decreasing", "edges-empty",
         "vocabulary-string"],
)
def test_calibrate_bad_config_exit_2_before_run(tmp_path, capsys, config, message):
    pool = write(tmp_path, "pool.jsonl", POOL)
    code, _, err = run_cli(capsys, "calibrate", "--records", pool,
                           "--config", write_json(tmp_path, "config.json", config),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"error: {message}\n" == err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    ("stratify", "message"),
    [
        (dict(STRATIFY, n_cal=7), "config: stratify.n_cal: must be an integer in [1, 6], got 7"),
        (dict(STRATIFY, status_vocabulary=["accept", "accept"]),
         "config: stratify.status_vocabulary: entries must be unique"),
        (dict(STRATIFY, status_vocabulary=["accept"]),
         "{pool}:1: status 'reject' not in stratify.status_vocabulary ['accept']"),
        (dict(STRATIFY, bin_edges=[0.0, 5.0, 6.5]),
         "{pool}:6: score 7.0 outside stratify.bin_edges [0.0, 6.5]"),
        (dict(STRATIFY, bin_edges=[2.5, 8.0], status_vocabulary=["accept", "hold"]),
         "{pool}:1: status 'reject' not in stratify.status_vocabulary ['accept', 'hold']"),
        (dict(STRATIFY, bin_edges=[2.5, 8.0]),
         "{pool}:1: score 2.0 outside stratify.bin_edges [2.5, 8.0]"),
    ],
    ids=["n-cal-above-pool", "vocabulary-repeated", "unknown-status", "score-above-edges",
         "status-before-score", "score-below-edges"],
)
def test_calibrate_stratify_errors_name_key_and_line(tmp_path, capsys, stratify, message):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.3, "stratify": stratify})
    code, _, err = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {message.format(pool=pool)}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("stratified", [False, True], ids=["plain", "stratified"])
def test_calibrate_builds_no_records(tmp_path, capsys, monkeypatch, stratified):
    built = []
    original = CalibrationRecord.__post_init__

    def counted(self):
        built.append(self.submission_id)
        original(self)

    monkeypatch.setattr(CalibrationRecord, "__post_init__", counted)
    config = {"target_rate": 0.33, **({"stratify": STRATIFY} if stratified else {})}
    code, _, _ = run_cli(capsys, "calibrate", "--records", write(tmp_path, "pool.jsonl", POOL),
                         "--config", write_json(tmp_path, "config.json", config),
                         "--out", str(tmp_path / "runs"))
    assert code == 0
    assert built == []


def test_threshold_error_builds_no_records(tmp_path, capsys, monkeypatch):
    built = []
    original = CalibrationRecord.__post_init__

    def counted(self):
        built.append(self.submission_id)
        original(self)

    monkeypatch.setattr(CalibrationRecord, "__post_init__", counted)
    config = {"simulate": {"threshold_error": {
        "population": SMALL_POPULATION, "n_cal_grid": [50, 100, 200], "replicates": 40,
        "seed": 11,
    }}}
    code, _, _ = run_cli(capsys, "simulate", "threshold-error",
                         "--config", write_json(tmp_path, "config.json", config),
                         "--out", str(tmp_path / "runs"))
    assert code == 0
    assert built == []


@pytest.mark.parametrize("first_zero", ["0.0", "-0.0"])
def test_calibrate_curve_names_the_first_signed_zero(tmp_path, capsys, first_zero):
    # 0.0 == -0.0: the curve's knot is the zero that comes first in the pool,
    # as sorted(set(scores)) over the pool's records picks it
    other = "0.0" if first_zero == "-0.0" else "-0.0"
    scores = [first_zero] + [other, "1.5", "-1.0", "2.5", other, "0.5", "-2.0"] * 5
    lines = [
        json.dumps({"id": f"c{i}", "score": 0, "accept": i % 3 != 1, "status": "s"})
        .replace('"score": 0', f'"score": {score}')
        for i, score in enumerate(scores)
    ]
    pool = write(tmp_path, "pool.jsonl", "\n".join(lines) + "\n")
    config = write_json(tmp_path, "config.json", {"target_rate": 0.4})
    code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    records = load_calibration_records(pool)
    values = [r.agent_score for r in records]
    points = calibrate.tail_probability_points(records, sorted(set(values)))
    curve = calibrate.isotonic_fit(points)
    expected = metrics.csv_text(
        ["threshold", "raw_estimate", "fitted", "weight"],
        [(t, raw, fit, weight) for (t, raw, weight), fit in zip(points, curve.fitted)],
    )
    text = (run_dir(out) / "curve.csv").read_text()
    assert text == expected
    assert f"\n{first_zero}," in text


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 9), st.floats(-1.0, 10.0), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def mostly(valid):
    """``valid`` or, in a minority of draws, any JSON value."""
    return st.integers(0, 5).flatmap(lambda k: JSON_VALUES if k == 0 else valid)


STRATIFY_CONFIGS = st.fixed_dictionaries(
    {
        "n_cal": mostly(st.integers(1, 6)),
        # POOL scores run from 2 to 7: a top edge of 6.5 leaves one record outside
        "bin_edges": mostly(
            st.tuples(
                st.sampled_from([0.0, 2.0]),
                st.lists(st.sampled_from([4.5, 6.0]), unique=True).map(sorted),
                st.sampled_from([6.5, 8.0]),
            ).map(lambda t: [t[0], *t[1], t[2]])
        ),
        "status_vocabulary": mostly(
            st.sampled_from([["accept", "reject"], ["reject", "accept", "hold"], ["accept"], [""]])
        ),
    }
)


@settings(max_examples=max(150, settings.default.max_examples))
@given(
    st.fixed_dictionaries(
        {"target_rate": mostly(st.floats(0.05, 0.95))},
        optional={"delta": mostly(st.floats(0.01, 0.99)), "stratify": mostly(STRATIFY_CONFIGS)},
    )
)
# the one record drawn is a reject: tau_05 is unreachable, exit 3
@example({"target_rate": 0.5, "stratify": {"n_cal": 1, "bin_edges": [0.0, 8.0],
                                            "status_vocabulary": ["reject", "accept"]}})
def test_calibrate_config_fuzz(config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        pool = write(tmp_path, "pool.jsonl", POOL)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["calibrate", "--records", pool,
                         "--config", write_json(tmp_path, "config.json", config),
                         "--seed", "1", "--out", str(tmp_path / "runs")])
        assert code in (0, 2, 3)
        assert (tmp_path / "runs").exists() == (code == 0)
        if code:
            assert err.getvalue().startswith("error: ")


POOL_FIELDS = {
    "id": st.one_of(st.sampled_from(["c0", ""]), JSON_VALUES),
    "score": st.one_of(st.integers(-1, 9), st.just(10**400), JSON_VALUES),
    "accept": st.one_of(st.booleans(), JSON_VALUES),
    "status": st.one_of(st.sampled_from(["accept", "reject", "hold"]), JSON_VALUES),
}
# a record without its id (the test numbers it), or a line that may be broken
GOOD_POOL_ENTRY = st.fixed_dictionaries(
    {"score": st.one_of(st.integers(0, 8), st.floats(0.0, 8.5)), "accept": st.booleans(),
     "status": st.sampled_from(["accept", "reject"] * 4 + ["hold"])}
)
POOL_ENTRY = st.integers(0, 5).flatmap(
    lambda k: GOOD_POOL_ENTRY if k else st.one_of(
        st.fixed_dictionaries({}, optional=POOL_FIELDS).map(json.dumps),
        st.sampled_from(["", "  ", "[1]", "null", "{broken", '{"id": "c1"} {}', "\ufeff{}"]),
        st.text(max_size=6),
    )
)


@settings(max_examples=max(150, settings.default.max_examples))
@given(
    st.lists(POOL_ENTRY, max_size=8),
    st.sampled_from([{"target_rate": 0.4},
                     {"target_rate": 0.4, "stratify": dict(STRATIFY, n_cal=2)}]),
)
def test_calibrate_pool_fuzz(entries, config):
    lines = [
        json.dumps({"id": f"c{i}", **entry}) if isinstance(entry, dict) else entry
        for i, entry in enumerate(entries)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        pool = write(tmp_path, "pool.jsonl", "\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["calibrate", "--records", pool,
                         "--config", write_json(tmp_path, "config.json", config),
                         "--seed", "1", "--out", str(tmp_path / "runs")])
        assert code in (0, 2, 3)
        assert (tmp_path / "runs").exists() == (code == 0)
        if code:
            assert err.getvalue().startswith("error: ")


def test_calibrate_config_and_input_errors(tmp_path, capsys):
    pool = write(tmp_path, "pool.jsonl", POOL)
    no_rate = write_json(tmp_path, "config.json", {})
    code, _, err = run_cli(capsys, "calibrate", "--records", pool, "--config", no_rate,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "target_rate" in err

    config = write_json(tmp_path, "ok.json", {"target_rate": 0.33})
    empty = write(tmp_path, "empty.jsonl", "\n")
    code, _, err = run_cli(capsys, "calibrate", "--records", empty, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "no records found" in err

    code, _, err = run_cli(capsys, "calibrate", "--records", str(tmp_path / "missing.jsonl"),
                           "--config", config, "--out", str(tmp_path / "runs"))
    assert code == 2


# ---------------------------------------------------------------- review


def test_review_golden(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", PANELS)
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    config = write_json(
        tmp_path, "config.json",
        {"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]}},
    )
    code, out, _ = run_cli(capsys, "review", "--panels", panels, "--thresholds", thresholds,
                           "--config", config, "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)

    assert (d / "decisions.csv").read_text() == (
        "id,score,accept_tau_rate,margin_tau_rate,accept_tau_05,margin_tau_05,any_flag\n"
        "p1,7.0,True,0.0,True,3.0,True\n"
        "p2,3.75,False,-3.25,False,-0.25,False\n"
        "p3,8.75,True,1.75,True,4.75,True\n"
    )

    rows = {}
    lines = (d / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,scope,value,numerator,denominator"
    for line in lines[1:]:
        metric, scope, value, num, den = line.split(",")
        rows[(metric, scope)] = (value, num, den)
    assert rows[("acpt", "tau_rate")] == ("0.6666666666666666", "2", "3")
    assert rows[("icr", "m1")] == ("0.3333333333333333", "1", "3")
    assert rows[("icr", "m2")] == ("0.5", "1", "2")
    assert rows[("icr", "any")] == ("0.6666666666666666", "2", "3")
    assert rows[("conflict_tau_rate", "any")] == ("1.0", "2", "2")

    report = (d / "review_report.txt").read_text()
    assert "tau_rate       7  66.7% (2/3)" in report
    assert "m1         33.3% (1/3)" in report
    assert "any        66.7% (2/3)" in report


def test_review_weight_config_modes(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", PANELS)
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)

    # per-reviewer weight map missing a roster member fails
    partial = write_json(
        tmp_path, "partial.json",
        {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]},
         "weights": {"m1": 1.0, "m2": 1.0}},
    )
    code, _, err = run_cli(capsys, "review", "--panels", panels, "--thresholds", thresholds,
                           "--config", partial, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "no weight for reviewer 'm3'" in err

    # gls weights need a variance for every reviewer
    gls_partial = write_json(
        tmp_path, "gls.json",
        {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]},
         "weights": "gls", "gls_variances": {"m1": 1.0, "m2": 2.0}},
    )
    code, _, err = run_cli(capsys, "review", "--panels", panels, "--thresholds", thresholds,
                           "--config", gls_partial, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "no variance for reviewer 'm3'" in err

    # complete gls config runs; precision weighting favors the low-variance reviewer
    gls_full = write_json(
        tmp_path, "gls_full.json",
        {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]},
         "weights": "gls", "gls_variances": {"m1": 1.0, "m2": 2.0, "m3": 1.0}},
    )
    code, out, _ = run_cli(capsys, "review", "--panels", panels, "--thresholds", thresholds,
                           "--config", gls_full, "--out", str(tmp_path / "runs"))
    assert code == 0
    decisions = (run_dir(out) / "decisions.csv").read_text().splitlines()
    # p1: weights (2/3, 1/3) over consensus ((6,8),(8,6)) -> score 7 + 1/3... recompute:
    # consensus = (2/3)*(6,8) + (1/3)*(8,6) = (20/3, 22/3); mean = 7.0
    assert decisions[1].startswith("p1,7.0,")


def test_review_input_errors(tmp_path, capsys):
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    config = write_json(
        tmp_path, "config.json",
        {"functional": {"kind": "linear", "coefficients": [0.5, 0.5]}},
    )
    empty_reviews = write(tmp_path, "panels.jsonl", '{"id": "p1", "reviews": []}\n')
    code, _, err = run_cli(capsys, "review", "--panels", empty_reviews,
                           "--thresholds", thresholds, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "has no reviews" in err

    # schema mismatch caught before any run directory is created
    schema_cfg = write_json(
        tmp_path, "schema.json",
        {"schema": {"criteria_count": 3, "bounds": [[1, 10], [1, 10], [1, 10]]}},
    )
    panels = write(tmp_path, "two.jsonl", PANELS)
    code, _, err = run_cli(capsys, "review", "--panels", panels, "--thresholds", thresholds,
                           "--config", schema_cfg, "--out", str(tmp_path / "runs2"))
    assert code == 2
    assert "expected 3 criteria" in err
    assert not (tmp_path / "runs2").exists()


# ---------------------------------------------------------------- bayes


def bayes_config(threshold):
    return {
        "functional": {"kind": "linear", "coefficients": [1.0]},
        "bayes": {
            "prior_mean": 5.0,
            "prior_variance": 4.0,
            "alpha": 0.05,
            "threshold": threshold,
            "review_variances": {"default": 1.0},
            "solicit_variance": 1.0,
        },
    }


BAYES_PANELS = (
    '{"id": "p1", "reviews": [{"reviewer": "m1", "overall": 7.5, "flag": false}, '
    '{"reviewer": "m2", "overall": 6.5, "flag": false}]}\n'
    '{"id": "p4", "reviews": []}\n'
)


def test_bayes_golden(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    config = write_json(tmp_path, "config.json", bayes_config("tau_05"))
    code, out, _ = run_cli(capsys, "bayes", "--panels", panels, "--thresholds", thresholds,
                           "--config", config, "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)

    lines = (d / "bayes.csv").read_text().splitlines()
    assert lines[0] == (
        "id,n_reviews,posterior_mean,posterior_variance,p_accept,accept,robust,solicit,note"
    )
    p1 = lines[1].split(",")
    assert p1[0] == "p1" and p1[1] == "2"
    assert float(p1[2]) == pytest.approx(6.777777777777778, abs=1e-12)
    assert float(p1[3]) == pytest.approx(4 / 9, abs=1e-12)
    assert p1[5] == "True" and p1[6] == "True" and p1[7] == "False"
    p4 = lines[2].split(",")
    assert p4[0] == "p4" and p4[1] == "0"
    assert float(p4[2]) == 5.0 and float(p4[3]) == 4.0
    assert float(p4[4]) == pytest.approx(0.6914624612740131, abs=1e-12)
    assert p4[8] == "prior-only"

    report = (d / "bayes_report.txt").read_text()
    assert "threshold:  4" in report
    assert "prior-only" in report


def test_bayes_numeric_threshold_without_thresholds_file(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    config = write_json(tmp_path, "config.json", bayes_config(7.0))
    code, out, _ = run_cli(capsys, "bayes", "--panels", panels, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    lines = (run_dir(out) / "bayes.csv").read_text().splitlines()
    p4 = lines[2].split(",")
    # prior N(5, 4) against threshold 7: P(accept) = 1 - Phi(1)
    assert float(p4[4]) == pytest.approx(0.15865525393145707, abs=1e-12)


def test_bayes_config_errors(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    no_bayes = write_json(tmp_path, "no_bayes.json",
                          {"functional": {"kind": "linear", "coefficients": [1.0]}})
    code, _, err = run_cli(capsys, "bayes", "--panels", panels, "--config", no_bayes,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "bayes" in err

    selector_no_file = write_json(tmp_path, "sel.json", bayes_config("tau_rate"))
    code, _, err = run_cli(capsys, "bayes", "--panels", panels, "--config", selector_no_file,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "needs --thresholds" in err

    inf_thresholds = write(
        tmp_path, "inf.json",
        '{"tau_rate": Infinity, "tau_05": 4.0, "target_rate": 0.05, "calibration_size": 6}\n',
    )
    code, _, err = run_cli(capsys, "bayes", "--panels", panels, "--thresholds", inf_thresholds,
                           "--config", selector_no_file, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "not finite" in err


def test_bayes_review_variances_must_be_object(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    config = bayes_config(5.0)
    config["bayes"]["review_variances"] = [1, 2]
    code, _, err = run_cli(capsys, "bayes", "--panels", panels,
                           "--config", write_json(tmp_path, "config.json", config),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "bayes.review_variances: must be an object" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("option", ["--panels", "--records", "--config"])
def test_directory_input_exits_2(tmp_path, capsys, option):
    files = {
        "--panels": write(tmp_path, "panels.jsonl", PANELS),
        "--records": write(tmp_path, "pool.jsonl", POOL),
        "--config": write_json(tmp_path, "config.json", {"target_rate": 0.33}),
    }
    files[option] = str(tmp_path)
    if option == "--panels":
        argv = ["detector-eval", "--panels", files["--panels"]]
    else:
        argv = ["calibrate", "--records", files["--records"], "--config", files["--config"]]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"error: {tmp_path}: cannot read: Is a directory" in err
    assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------- detector


DET_PANELS = (
    '{"id": "p1", "label": true, "reviews": [{"reviewer": "m1", "overall": 5, "flag": true}, '
    '{"reviewer": "m2", "overall": 5, "flag": false}]}\n'
    '{"id": "p2", "label": true, "reviews": [{"reviewer": "m1", "overall": 5, "flag": false}, '
    '{"reviewer": "m2", "overall": 5, "flag": false}]}\n'
    '{"id": "p3", "label": false, "reviews": [{"reviewer": "m1", "overall": 5, "flag": true}, '
    '{"reviewer": "m2", "overall": 5, "flag": false}]}\n'
    '{"id": "p4", "label": false, "reviews": [{"reviewer": "m1", "overall": 5, "flag": false}, '
    '{"reviewer": "m2", "overall": 5, "flag": false}]}\n'
)


def test_detector_eval_golden(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", DET_PANELS)
    code, out, _ = run_cli(capsys, "detector-eval", "--panels", panels,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)
    assert (d / "detector.csv").read_text() == (
        "reviewer,tp,fp,tn,fn,tpr,fpr,accuracy,f1\n"
        "m1,1,1,1,1,0.5,0.5,0.5,0.5\n"
        "m2,0,0,2,2,0.0,0.0,0.5,0.0\n"
        "any,1,1,1,1,0.5,0.5,0.5,0.5\n"
        "random-baseline,,,,,0.5,0.5,0.5,0.5\n"
    )
    report = (d / "detector_report.txt").read_text()
    assert "labeled panels: 4" in report
    assert "random-baseline" in report
    assert "0.0% (0/2)" in report  # the all-negative reviewer row


def test_detector_eval_requires_labels(tmp_path, capsys):
    panels = write(
        tmp_path, "panels.jsonl",
        '{"id": "p1", "reviews": [{"reviewer": "m1", "overall": 5, "flag": true}]}\n',
    )
    code, _, err = run_cli(capsys, "detector-eval", "--panels", panels,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "no fabrication_label" in err


# ---------------------------------------------------------------- fail closed


LINEAR = {"kind": "linear", "coefficients": [0.5, 0.5]}


def panel_bayes_config(review_variances):
    return {"functional": LINEAR,
            "bayes": {"prior_mean": 5.0, "prior_variance": 4.0, "threshold": 5.0,
                      "review_variances": review_variances}}


@pytest.mark.parametrize(
    ("command", "config", "message"),
    [
        ("review", {"functional": LINEAR, "weights": "gls", "gls_variances": {"m1": 1.0, "m2": 2.0}},
         "config: gls_variances.m3: no variance for reviewer 'm3' (first review at {panels}:3)"),
        ("review", {"functional": LINEAR, "weights": "gls",
                    "gls_variances": {"m1": 1.0, "m2": 0, "m3": 1.0}},
         "config: gls_variances.m2: must be a finite number > 0, got 0"),
        ("bayes", panel_bayes_config({"m1": "abc", "default": 1.0}),
         "config: bayes.review_variances.m1: must be a finite number > 0, got 'abc'"),
        ("bayes", panel_bayes_config({"m1": 1.0, "m2": 1.0}),
         "config: bayes.review_variances.m3: no variance for reviewer 'm3' and no default "
         "(first review at {panels}:3)"),
        ("detector-eval", None, "{panels}:1: panel 'p1' has no fabrication_label"),
        ("review", {"functional": LINEAR, "weights": {"m1": 0, "m2": 0, "m3": 1.0}},
         "{panels}:1: the panel's reviewer weights from config sum to 0; must be > 0"),
        ("review", {"functional": {"kind": "linear", "coefficients": [0.5, 0.5, 1.0]}},
         "{panels}:1: rubric length differs from the functional's 3 coefficients"),
    ],
    ids=["gls-missing", "gls-not-positive", "bayes-not-numeric", "bayes-no-default",
         "detector-unlabeled", "weights-sum-zero", "coefficient-count"],
)
def test_panel_commands_fail_before_run_dir(tmp_path, capsys, command, config, message):
    panels = write(tmp_path, "panels.jsonl", PANELS)
    argv = [command, "--panels", panels]
    if command == "review":
        argv += ["--thresholds", write(tmp_path, "thresholds.json", THRESHOLDS)]
    if config is not None:
        argv += ["--config", write_json(tmp_path, "config.json", config)]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {message.format(panels=panels)}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        ('{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [6, 8], "flag": false}, '
         '{"reviewer": "m1", "rubric": [8, 6], "flag": true}]}',
         "{panels}:2: reviews: duplicate reviewer_id 'm1'"),
        ('{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [6, 8], "flag": false}, '
         '{"reviewer": "m2", "rubric": [8, 6, 1], "flag": true}]}',
         "{panels}:2: reviews: rubric length mismatch: 'm2' has 3, expected 2"),
        ('{"id": "p1", "reviews": [{"reviewer": "m1", "rubric": [6, 11], "flag": false}]}',
         "{panels}:2: panel 'p1', reviewer 'm1': values[1]: score 11.0 outside bounds [1.0, 10.0]"),
    ],
    ids=["duplicate-reviewer", "rubric-length", "schema-bounds"],
)
def test_panel_errors_name_the_line(tmp_path, capsys, lines, message):
    panels = write(tmp_path, "panels.jsonl", "\n" + lines + "\n")
    config = write_json(tmp_path, "config.json",
                        {"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]}})
    code, _, err = run_cli(capsys, "review", "--panels", panels,
                           "--thresholds", write(tmp_path, "thresholds.json", THRESHOLDS),
                           "--config", config, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {message.format(panels=panels)}\n"
    assert not (tmp_path / "runs").exists()


def test_bayes_settings_checked_before_run_dir(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    for key, value, message in [
        ("alpha", 1.5, "config: bayes.alpha: must lie strictly in (0, 1), got 1.5"),
        ("solicit_variance", -1, "config: bayes.solicit_variance: must be a finite number > 0, got -1"),
    ]:
        config = bayes_config(7.0)
        config["bayes"][key] = value
        code, _, err = run_cli(capsys, "bayes", "--panels", panels,
                               "--config", write_json(tmp_path, "config.json", config),
                               "--out", str(tmp_path / "runs"))
        assert code == 2
        assert err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()


# ---------------------------------------------------------------- simulate


def test_simulate_margins_default_passes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "margins", "--out", str(tmp_path / "runs"))
    assert code == 0
    assert "PASS: empirical misclassification within bound (3 SE slack)" in out
    assert "PASS: larger panels no worse per bin (count >= 50)" in out
    d = run_dir(out)
    lines = (d / "margin_bins.csv").read_text().splitlines()
    assert lines[0] == "gamma_lo,gamma_hi,gamma_mid,empirical,stderr,bound,count,m"
    assert len(lines) == 1 + 6 * 3  # six bins, panel sizes 1, 2, 3
    assert (d / "checks.txt").read_text().startswith("PASS")


def test_simulate_margins_reproducible(tmp_path, capsys):
    dirs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "simulate", "margins", "--seed", "20260819",
                               "--out", str(tmp_path / "runs"))
        assert code == 0
        dirs.append(run_dir(out))
    a, b = dirs
    assert (a / "margin_bins.csv").read_bytes() == (b / "margin_bins.csv").read_bytes()
    assert (a / "checks.txt").read_bytes() == (b / "checks.txt").read_bytes()


def test_simulate_variance_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "variance", "--m", "1,2,3",
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    assert "PASS: consensus variance scales like 1/M" in out
    lines = (run_dir(out) / "variance.csv").read_text().splitlines()
    assert lines[0] == "m,var_empirical,proxy"
    proxies = [line.split(",")[2] for line in lines[1:]]
    assert proxies == ["81.0", "40.5", "27.0"]


def test_simulate_threshold_error_small_config(tmp_path, capsys):
    config = write_json(
        tmp_path, "config.json",
        {"simulate": {"threshold_error": {
            "population": SMALL_POPULATION,
            "n_cal_grid": [50, 100, 200],
            "replicates": 40,
            "seed": 11,
        }}},
    )
    code, out, _ = run_cli(capsys, "simulate", "threshold-error", "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    assert "log-log slope:" in out
    assert "mean abs error at n_cal=200:" in out
    assert "PASS: error decays like 1/sqrt(n_cal), near-monotone" in out
    lines = (run_dir(out) / "threshold_error.csv").read_text().splitlines()
    assert lines[0] == "n_cal,mean_abs_err,stderr,failures"
    assert [line.split(",")[0] for line in lines[1:]] == ["50", "100", "200"]


def test_simulate_threshold_error_flat_link_fails_checks(tmp_path, capsys):
    population = dict(SMALL_POPULATION, link_midpoint=5.5, link_slope=0.4)
    config = write_json(
        tmp_path, "config.json",
        {"simulate": {"threshold_error": {
            "population": population,
            "n_cal_grid": [50, 100, 200],
            "replicates": 40,
            "seed": 11,
        }}},
    )
    code, out, _ = run_cli(capsys, "simulate", "threshold-error", "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 4
    assert "FAIL: error decays like 1/sqrt(n_cal), near-monotone" in out
    assert "outside [-0.6, -0.4]" in out
    # the failing run still leaves a complete, inspectable run directory
    d = run_dir(out)
    assert (d / "threshold_error.csv").exists()
    assert "FAIL" in (d / "checks.txt").read_text()


@pytest.mark.parametrize(
    ("argv", "config", "message"),
    [
        (["margins"], {"simulate": []}, "config: simulate: must be an object"),
        (["variance"], {"simulate": {"variance": [1, 3]}},
         "config: simulate.variance: must be an object"),
        (["margins"], {"simulate": {"margins": {"spec": {"n_papers": 100}}}},
         "config: simulate.margins.spec.m_reviewers: required"),
        (["threshold-error"], {"simulate": {"threshold_error": {"population": {"n_papers": 100}}}},
         "config: simulate.threshold_error.population.n_papers: unknown key"),
        (["variance", "--m", "0,3"], None, "--m: panel sizes must be integers >= 1, got [0, 3]"),
        (["margins"], {"simulate": {"margins": {"m_grid": [0, 2]}}},
         "config: simulate.margins.m_grid: panel sizes must be integers >= 1, got [0, 2]"),
        (["threshold-error"], {"simulate": {"threshold_error": {"n_cal_grid": [1, 5]}}},
         "config: simulate.threshold_error.n_cal_grid: calibration sizes must be strictly "
         "increasing integers in [2, 20000], got [1, 5]"),
        (["threshold-error", "--grid", "50,50"], None,
         "--grid: calibration sizes must be strictly increasing integers in [2, 20000], "
         "got [50, 50]"),
        (["threshold-error"], {"simulate": {"threshold_error": {"replicates": 1}}},
         "config: simulate.threshold_error.replicates: must be an integer >= 2, got 1"),
        (["threshold-error"], {"simulate": {"threshold_error": {"n_cal_grid": [50.9, 100.7]}}},
         "config: simulate.threshold_error.n_cal_grid: must be a list of integers, "
         "got [50.9, 100.7]"),
        (["threshold-error"], {"simulate": {"threshold_error": {"n_cal_grid": [50, True]}}},
         "config: simulate.threshold_error.n_cal_grid: must be a list of integers, got [50, True]"),
        (["threshold-error"], {"simulate": {"threshold_error": {"replicates": 2.9}}},
         "config: simulate.threshold_error.replicates: must be an integer >= 2, got 2.9"),
        (["threshold-error"], {"simulate": {"threshold_error": {"seed": -1}}},
         "config: simulate.threshold_error.seed: must be an integer >= 0, got -1"),
        (["threshold-error"], {"simulate": {"threshold_error": {"seed": 1.5}}},
         "config: simulate.threshold_error.seed: must be an integer >= 0, got 1.5"),
        (["margins"], {"simulate": {"margins": {"m_grid": [1.7, 3.2]}}},
         "config: simulate.margins.m_grid: must be a list of integers, got [1.7, 3.2]"),
        (["variance"], {"simulate": {"variance": {"m_grid": "1,3"}}},
         "config: simulate.variance.m_grid: must be a list of integers, got '1,3'"),
        (["threshold-error"],
         {"simulate": {"threshold_error": {"population": dict(SMALL_POPULATION, size=3000.9)}}},
         "config: simulate.threshold_error.population.size: must be an integer, got 3000.9"),
        (["threshold-error"],
         {"simulate": {"threshold_error": {"population": dict(SMALL_POPULATION, seed=7.8)}}},
         "config: simulate.threshold_error.population.seed: must be an integer >= 0, got 7.8"),
        (["variance"], {"simulate": {"variance": {"spec": dict(COHORT_SPEC, m_reviewers=True)}}},
         "config: simulate.variance.spec.m_reviewers: must be an integer, got True"),
        (["margins"], {"simulate": {"margins": {"spec": dict(COHORT_SPEC, n_papers=3000.9)}}},
         "config: simulate.margins.spec.n_papers: must be an integer, got 3000.9"),
        (["margins"], {"simulate": {"margins": {"spec": dict(COHORT_SPEC, seed=-2)}}},
         "config: simulate.margins.spec.seed: must be an integer >= 0, got -2"),
    ],
    ids=["simulate-list", "section-list", "partial-spec", "partial-population", "m-zero-flag",
         "m-zero-config", "grid-below-2", "grid-flag-repeated", "one-replicate", "grid-floats",
         "grid-bool", "replicates-float", "seed-negative", "seed-float", "m-grid-floats",
         "m-grid-string", "size-float", "population-seed-float",
         "m-reviewers-bool", "n-papers-float", "spec-seed-negative"],
)
def test_simulate_bad_settings_exit_2_before_run(tmp_path, capsys, argv, config, message):
    if config is not None:
        argv = [*argv, "--config", write_json(tmp_path, "config.json", config)]
    code, _, err = run_cli(capsys, "simulate", *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert f"error: {message}\n" == err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "argv",
    [["calibrate", "--records", "pool.jsonl", "--config", "config.json"],
     ["simulate", "margins"], ["simulate", "threshold-error"], ["simulate", "variance"]],
    ids=["calibrate", "margins", "threshold-error", "variance"],
)
@pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
def test_seed_flag_names_itself(tmp_path, capsys, argv, seed):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", seed, "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    assert f"argument --seed: must be a non-negative integer, got {seed}\n" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("replicates", ["1", "2.5", "x"])
def test_replicates_flag_names_itself(tmp_path, capsys, replicates):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "threshold-error", "--replicates", replicates,
              "--out", str(tmp_path / "runs")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --replicates: must be an integer >= 2, got {replicates}\n" in err
    assert not (tmp_path / "runs").exists()


def test_simulate_bad_flag_values(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "margins", "--m", "1,x",
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "--m" in err


# ---------------------------------------------------------------- reproducibility


def test_calibrate_byte_reproducible(tmp_path, capsys):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33})
    dirs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                               "--out", str(tmp_path / "runs"))
        assert code == 0
        dirs.append(run_dir(out))
    a, b = dirs
    assert a != b
    names = {p.name for p in a.iterdir()} - {"manifest.json"}
    assert names == {p.name for p in b.iterdir()} - {"manifest.json"}
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # manifests agree on everything except the timestamps
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    for key in ("command", "tool_version", "seed", "config_digest",
                "input_digests", "output_digests"):
        assert ma[key] == mb[key]
