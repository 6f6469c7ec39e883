import collections
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from panelcal import calibrate, simulate, strata
from panelcal.cli import _sha256_file, main
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
        (["bound", "dkw", "--n", "5", "--delta", "1e-320"], "8.59194"),
        (["bound", "scalar", "--m", "3", "--gamma", "1", "--sigma-sq", "1", "--range", "9"], "0.687289"),
        (["bound", "tail", "--t", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
        (["bound", "margin", "--gamma", "2", "--sigma-w-sq", "0.25", "--c-max", "0.5"], "0.0324332"),
        (["bound", "tau05", "--eps-pi", "0.1", "--c-min", "0.4", "--flat-width", "1"], "1.25"),
        # t * t and the denominator both overflow: exp(-1.5), not nan
        (["bound", "tail", "--t", "1e308", "--sigma-w-sq", "1e308", "--c-max", "1e308"], "0.22313"),
        (["bound", "margin", "--gamma", "1e308", "--sigma-w-sq", "0", "--c-max", "1e308"], "0.22313"),
        (["bound", "scalar", "--m", "1", "--gamma", "1e308", "--sigma-sq", "1e308", "--range", "1e308"],
         "0.22313"),
        # the denominator underflows to 0: exp(-1.5), not 0 or a ZeroDivisionError
        (["bound", "tail", "--t", "1e-200", "--sigma-w-sq", "0", "--c-max", "1e-200"], "0.22313"),
        (["bound", "scalar", "--m", "1", "--gamma", "1e-200", "--sigma-sq", "0", "--range", "1e-200"],
         "0.22313"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.strip() == expected


def test_bound_rejects_bad_delta(capsys):
    code, _, err = run_cli(capsys, "bound", "dkw", "--n", "200", "--delta", "1.5")
    assert code == 2
    assert "delta" in err


@pytest.mark.parametrize(("argv", "message"), [
    (["tail", "--t", "1", "--sigma-w-sq", "-1", "--c-max", "1"], "sigma_w_sq: must be finite and >= 0, got -1.0"),
    (["tail", "--t", "1", "--sigma-w-sq", "1", "--c-max", "inf"], "c_max: must be finite and >= 0, got inf"),
    (["margin", "--gamma", "1", "--sigma-w-sq", "nan", "--c-max", "1"], "sigma_w_sq: must be finite and >= 0, got nan"),
    (["margin", "--gamma", "1", "--sigma-w-sq", "1", "--c-max", "-0.5"], "c_max: must be finite and >= 0, got -0.5"),
], ids=["tail-sigma", "tail-c-max", "margin-sigma", "margin-c-max"])
def test_bound_inputs_exit_2_with_the_number_rule(capsys, argv, message):
    code, out, err = run_cli(capsys, "bound", *argv)
    assert code == 2
    assert (out, err) == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("size", [0, 1 << 20, (5 << 19) + 3])
def test_sha256_file_hashes_in_blocks(tmp_path, size):
    path = tmp_path / "input"
    path.write_bytes(bytes(i * 7 % 251 for i in range(size)))
    assert _sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


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
    for module, name in ((calibrate, "_pava"), (strata, "_cell_members")):

        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    rank = calibrate.TailCounts.of
    monkeypatch.setattr(calibrate.TailCounts, "of",
                        classmethod(lambda cls, *args: calls.update(["TailCounts.of"]) or rank(*args)))
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33, "stratify": STRATIFY})
    code, _, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                         "--seed", "3", "--out", str(tmp_path / "runs"))
    assert code == 0
    # one ranking of the calibration set gives tau_rate, tau_05 and the curve, fitted by one PAVA run
    assert calls == {"_pava": 1, "TailCounts.of": 1, "_cell_members": 1}


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
                             "--grid", "2,3", "--replicates", "2", "--out", str(tmp_path / "runs"))
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
         "config: stratify.bin_edges: need at least 2 edges, got 0"),
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
         "{pool}:1: status 'reject' not in status_vocabulary ['accept']"),
        (dict(STRATIFY, bin_edges=[0.0, 5.0, 6.5]),
         "{pool}:6: score 7.0 outside bin_edges [0.0, 6.5]"),
        (dict(STRATIFY, bin_edges=[2.5, 8.0], status_vocabulary=["accept", "hold"]),
         "{pool}:1: status 'reject' not in status_vocabulary ['accept', 'hold']"),
        (dict(STRATIFY, bin_edges=[2.5, 8.0]),
         "{pool}:1: score 2.0 outside bin_edges [2.5, 8.0]"),
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
    expected = reference.csv_text(
        ["threshold", "raw_estimate", "fitted", "weight"],
        [(t, raw, fit, weight) for (t, raw, weight), fit in zip(points, curve.fitted)],
    )
    text = (run_dir(out) / "curve.csv").read_text()
    assert text == expected
    assert f"\n{first_zero}," in text


@pytest.mark.parametrize("first_zero", ["0.0", "-0.0"])
def test_calibrate_thresholds_name_the_first_signed_zero(tmp_path, capsys, first_zero):
    # both thresholds fall on the zero score, and every output writes it with the sign
    # of the zero that comes first in the pool; a pool this size is sorted by quicksort
    # in a way that does not keep the order of equal scores
    other = "0.0" if first_zero == "-0.0" else "-0.0"
    scores = [other] * 599 + ["1.5"] * 400 + ["-1.0"] * 2000 + ["-2.0"] * 1000
    random.Random(1).shuffle(scores)
    scores.insert(0, first_zero)
    lines = [
        json.dumps({"id": f"c{i}", "score": 0, "accept": float(score) >= 0, "status": "s"})
        .replace('"score": 0', f'"score": {score}')
        for i, score in enumerate(scores)
    ]
    pool = write(tmp_path, "pool.jsonl", "\n".join(lines) + "\n")
    config = write_json(tmp_path, "config.json", {"target_rate": 0.25})  # 1,000 of 4,000 at or above 0
    code, out, _ = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    d = run_dir(out)
    thresholds = json.loads((d / "thresholds.json").read_text())
    assert [repr(thresholds[key]) for key in ("tau_rate", "tau_05")] == [first_zero, first_zero]
    report = (d / "calibration_report.txt").read_text()
    shown = f"{float(first_zero):.6g}"
    assert f"\ntau_rate:            {shown}\n" in report
    assert f"\ntau_05:              {shown}\n" in report
    assert f"\n{first_zero}," in (d / "curve.csv").read_text()


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

    conflicts = [(name, label, "100.0% (1/1)" if name != "any" else "100.0% (2/2)")
                 for label in ("tau_rate", "tau_05") for name in ("m1", "m2", "m3", "any")]
    assert (d / "review_report.txt").read_text() == "\n".join([
        "review report",
        "",
        "panels: 3",
        "",
        "acceptance",
        reference.aligned_table(["threshold", "value", "acpt"],
                                [("tau_rate", "7", "66.7% (2/3)"), ("tau_05", "4", "66.7% (2/3)")]),
        "integrity flags",
        reference.aligned_table(["reviewer", "icr"], [
            ("m1", "33.3% (1/3)"), ("m2", "50.0% (1/2)"), ("m3", "100.0% (1/1)"),
            ("any", "66.7% (2/3)"),
        ]),
        "conflicts (flagged but scored at acceptance level)",
        reference.aligned_table(["reviewer", "threshold", "conflict"], conflicts),
    ])


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

    assert (d / "bayes_report.txt").read_text() == "\n".join([
        "credible decision report",
        "",
        "panels:     2",
        "prior:      mean 5, variance 4",
        "threshold:  4",
        "alpha:      0.05",
        "",
        reference.aligned_table(
            ["id", "reviews", "post_mean", "post_var", "p_accept", "robust", "solicit", "note"],
            [("p1", "2", "6.7778", "0.4444", "1.0000", "yes", "no", ""),
             ("p4", "0", "5.0000", "4.0000", "0.6915", "no", "no", "prior-only")],
        ),
    ])


def test_bayes_every_panel_prior_only(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl",
                   '{"id": "p4", "reviews": []}\n{"id": "p5", "reviews": []}\n')
    config = write_json(tmp_path, "config.json", bayes_config(7.0))
    code, out, _ = run_cli(capsys, "bayes", "--panels", panels, "--config", config,
                           "--out", str(tmp_path / "runs"))
    assert code == 0
    lines = (run_dir(out) / "bayes.csv").read_text().splitlines()
    assert [line.split(",")[:4] + line.split(",")[8:] for line in lines[1:]] == [
        ["p4", "0", "5.0", "4.0", "prior-only"], ["p5", "0", "5.0", "4.0", "prior-only"]]


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
    assert err == "error: config: bayes.threshold: must be finite, got inf\n"


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


@pytest.mark.parametrize(
    ("out", "reason"),
    [("afile", "File exists"), ("afile/sub", "Not a directory")],
    ids=["out-is-file", "out-below-file"],
)
def test_out_blocked_by_file_exits_2(tmp_path, capsys, out, reason):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.33})
    blocker = write(tmp_path, "afile", "keep\n")
    before = sorted(tmp_path.rglob("*"))
    code, out_text, err = run_cli(capsys, "calibrate", "--records", pool, "--config", config,
                                  "--out", str(tmp_path / out))
    assert code == 2
    assert out_text == ""
    assert err == f"error: --out: {tmp_path / out}: cannot create directory ({reason})\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert Path(blocker).read_text() == "keep\n"


@pytest.mark.parametrize(
    ("out", "reason"),
    [("afile", "File exists"), ("afile/sub", "Not a directory")],
    ids=["out-is-file", "out-below-file"],
)
def test_out_blocked_by_file_fails_before_the_command_runs(tmp_path, capsys, monkeypatch,
                                                           out, reason):
    import panelcal.simulate

    def unexpected(*args):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(panelcal.simulate, "synthetic_calibration_population", unexpected)
    write(tmp_path, "afile", "keep\n")
    before = sorted(tmp_path.rglob("*"))
    code, out_text, err = run_cli(capsys, "simulate", "threshold-error",
                                  "--out", str(tmp_path / out))
    assert code == 2
    assert out_text == ""
    assert err == f"error: --out: {tmp_path / out}: cannot create directory ({reason})\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("option", ["--records", "--panels", "--config", "--thresholds"])
def test_non_utf8_input_exits_2_naming_file_and_line(tmp_path, capsys, option):
    files = {
        "--records": write(tmp_path, "pool.jsonl", POOL),
        "--panels": write(tmp_path, "panels.jsonl", PANELS),
        "--thresholds": write(tmp_path, "thresholds.json", THRESHOLDS),
    }
    files["--config"] = write_json(tmp_path, "config.json",
                                   {"target_rate": 0.33, "functional": LINEAR})
    bad = Path(files[option])
    lines = bad.read_bytes().splitlines(keepends=True)
    bad.write_bytes(b"".join(lines[:1]) + b"\xff" + b"".join(lines[1:]))
    if option == "--records":
        argv = ["calibrate", "--records", files["--records"], "--config", files["--config"]]
    else:
        argv = ["review", "--panels", files["--panels"], "--thresholds", files["--thresholds"],
                "--config", files["--config"]]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {bad}:2: not valid UTF-8\n"
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



@pytest.mark.parametrize("held", [False, True], ids=["fresh-out", "out-with-a-run"])
@pytest.mark.parametrize(
    ("method", "name", "code"),
    [
        ("write_bytes", "detector.csv", errno.ENOSPC),
        ("write_bytes", "manifest.json", errno.ENOSPC),
        ("mkdir", "detector-eval-", errno.EACCES),
    ],
    ids=["first-output", "manifest", "run-directory"],
)
def test_a_failed_write_exits_2_and_leaves_no_run_directory(tmp_path, capsys, monkeypatch, held, method, name,
                                                            code):
    panels = write(tmp_path, "panels.jsonl", DET_PANELS)
    out = tmp_path / "runs"
    if held:
        assert run_cli(capsys, "detector-eval", "--panels", panels, "--out", str(out))[0] == 0

    def kept():  # what --out holds besides the column cache
        return sorted(p for p in out.rglob("*") if ".panelcal-cache" not in p.relative_to(out).parts)

    before, failed, original = kept(), [], getattr(Path, method)

    def fail(path, *args, **kwargs):  # fails as the OS does: an OSError with the errno and the path
        if path.name.startswith(name):
            failed.append(path)
            raise OSError(code, os.strerror(code), str(path))
        return original(path, *args, **kwargs)

    monkeypatch.setattr(Path, method, fail)
    exit_code, out_text, err = run_cli(capsys, "detector-eval", "--panels", panels, "--out", str(out))
    assert exit_code == 2
    assert out_text == ""
    assert err == f"error: {failed[0]}: {os.strerror(code)}\n"
    assert kept() == before


def test_a_failed_write_that_names_no_file_is_worded_with_its_path(tmp_path, capsys, monkeypatch):
    # a write() that fails after the open (a full disk) raises an OSError with no filename
    panels = write(tmp_path, "panels.jsonl", DET_PANELS)
    original, failed = Path.write_bytes, []

    def fail(path, data):
        if path.name == "detector.csv":
            failed.append(path)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return original(path, data)

    monkeypatch.setattr(Path, "write_bytes", fail)
    code, out_text, err = run_cli(capsys, "detector-eval", "--panels", panels, "--out", str(tmp_path / "runs"))
    assert (code, out_text) == (2, "")
    assert err == f"error: {failed[0]}: {os.strerror(errno.ENOSPC)}\n"


def test_a_run_directory_name_taken_before_its_mkdir_gets_the_next_suffix(tmp_path, capsys, monkeypatch):
    # another run makes the chosen name between the name's choice and the mkdir: the mkdir's
    # FileExistsError, not an exists() before it, moves this run on to the next suffix
    panels = write(tmp_path, "panels.jsonl", DET_PANELS)
    out = tmp_path / "runs"
    original, taken = Path.mkdir, []

    def mkdir(path, *args, **kwargs):
        if path.name.startswith("detector-eval-") and not taken:
            taken.append(path)
            original(path)  # the other run's directory
        return original(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", mkdir)
    code, text, err = run_cli(capsys, "detector-eval", "--panels", panels, "--out", str(out))
    assert (code, err) == (0, "")
    (other,) = taken
    assert run_dir(text) == other.with_name(f"{other.name}-2")
    assert (run_dir(text) / "manifest.json").is_file() and not any(other.iterdir())


@pytest.mark.parametrize(("command", "line", "message"), [
    ("review", '{"id": "a\\ud800", "reviews": [{"reviewer": "m1", "overall": 7, "flag": false}]}',
     "field 'id' must not contain a lone surrogate"),
    ("detector-eval", '{"id": "a", "label": true, "reviews": [{"reviewer": "m\\udfff", "overall": 7, "flag": true}]}',
     "reviews[0]: field 'reviewer' must not contain a lone surrogate"),
])
def test_a_lone_surrogate_exits_2_naming_its_line_before_any_run_directory(tmp_path, capsys, command, line,
                                                                          message):
    # no output could encode the name as UTF-8: the loader refuses it, as it refuses a line break
    panels = write(tmp_path, "panels.jsonl", line + "\n")
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    config = write_json(tmp_path, "config.json", {"functional": {"kind": "linear", "coefficients": [1]}})
    out = tmp_path / "runs"
    extra = ["--thresholds", thresholds, "--config", config] if command == "review" else []
    code, text, err = run_cli(capsys, command, "--panels", panels, *extra, "--out", str(out))
    assert (code, text, err) == (2, "", f"error: {panels}:1: {message}\n")
    assert not out.exists()


def test_finish_hashes_the_bytes_it_wrote(tmp_path, capsys, monkeypatch):
    # each JSON input is opened once, by the loader, and its digest is of the bytes it read; each output's
    # digest is of the bytes written, and equals the sha256 of the file on disk
    argv, _ = cached_command(tmp_path, "review")
    json_inputs = {flag: argv[argv.index(flag) + 1] for flag in ("--thresholds", "--config")}
    opened, path_open = [], Path.open
    monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs: opened.append(str(path))
                        or path_open(path, *args, **kwargs))
    code, text, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 0
    assert sorted(path for path in opened if path in json_inputs.values()) == sorted(json_inputs.values())
    d = run_dir(text)
    manifest = json.loads((d / "manifest.json").read_text())
    thresholds, config = (hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in json_inputs.values())
    assert manifest["input_digests"][json_inputs["--thresholds"]] == thresholds
    assert manifest["config_digest"] == config
    digests = manifest["output_digests"]
    assert sorted(digests) == sorted(p.name for p in d.iterdir() if p.name != "manifest.json")
    for name, digest in digests.items():
        assert digest == hashlib.sha256((d / name).read_bytes()).hexdigest()


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
         "config: gls_variances.m2: must be finite and > 0, got 0.0"),
        ("bayes", panel_bayes_config({"m1": "abc", "default": 1.0}),
         "config: bayes.review_variances.m1: must be finite and > 0, got 'abc'"),
        ("bayes", panel_bayes_config({"m1": 1.0, "m2": 1.0}),
         "config: bayes.review_variances.m3: no variance for reviewer 'm3' and no default "
         "(first review at {panels}:3)"),
        ("detector-eval", None, "{panels}:1: panel 'p1' has no fabrication_label"),
        ("review", {"functional": LINEAR, "weights": {"m1": 0, "m2": 0, "m3": 1.0}},
         "{panels}:1: the panel's reviewer weights from config sum to 0; must be > 0"),
        ("review", {"functional": {"kind": "linear", "coefficients": [0.5, 0.5, 1.0]}},
         "{panels}:1: rubric length differs from the functional's 3 coefficients"),
        ("review", {"functional": LINEAR, "weights": "gls"},
         "config: gls_variances: required reviewer-to-variance object when weights is 'gls'"),
        ("review", {"functional": {"kind": "overall_pick"}},
         "config: functional: overall_pick scoring needs a schema with overall_index set"),
    ],
    ids=["gls-missing", "gls-not-positive", "bayes-not-numeric", "bayes-no-default",
         "detector-unlabeled", "weights-sum-zero", "coefficient-count", "gls-no-variances",
         "overall-pick-no-schema"],
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


@pytest.mark.parametrize("name", ["any", "random-baseline"])
@pytest.mark.parametrize("command", ["review", "detector-eval"])
def test_reserved_reviewer_name_exits_2_before_run_dir(tmp_path, capsys, command, name):
    # a reviewer named as a summary row would give metrics.csv or detector.csv two rows of that name
    panels = [
        {"id": "p1", "label": True, "reviews": [{"reviewer": "m1", "overall": 5, "flag": True}]},
        {"id": "p2", "label": False, "reviews": [{"reviewer": "m1", "overall": 6, "flag": False},
                                                 {"reviewer": name, "overall": 4, "flag": True}]},
        {"id": "p3", "label": True, "reviews": [{"reviewer": name, "overall": 7, "flag": False}]},
    ]
    path = write(tmp_path, "panels.jsonl", "".join(json.dumps(p) + "\n" for p in panels))
    argv = [command, "--panels", path]
    if command == "review":
        argv += ["--thresholds", write(tmp_path, "thresholds.json", THRESHOLDS),
                 "--config", write_json(tmp_path, "config.json",
                                        {"functional": {"kind": "linear", "coefficients": [1]}})]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {path}:2: reviewer name {name!r} is reserved for the summary row\n"
    assert not (tmp_path / "runs").exists()


LINEAR_1 = {"kind": "linear", "coefficients": [1]}


@pytest.mark.parametrize(
    ("field", "name", "message"),
    [("id", "a\rb", "field 'id'"), ("reviewer", "m\r1", "reviews[0]: field 'reviewer'")],
    ids=["id", "reviewer"],
)
@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval"])
def test_name_with_a_line_break_exits_2_before_run_dir(tmp_path, capsys, command, field, name, message):
    # before Python 3.13 csv.writer leaves a bare \r unquoted: the row would read back as two
    panels = [
        {"id": "p1", "label": True, "reviews": [{"reviewer": "m1", "overall": 5, "flag": True}]},
        {"id": "p2", "label": False, "reviews": [{"reviewer": "m2", "overall": 6, "flag": False}]},
    ]
    if field == "id":
        panels[1]["id"] = name
    else:
        panels[1]["reviews"][0]["reviewer"] = name
    path = write(tmp_path, "panels.jsonl", "".join(json.dumps(p) + "\n" for p in panels))
    argv = [command, "--panels", path]
    if command != "detector-eval":
        config = bayes_config("tau_05") if command == "bayes" else {"functional": LINEAR_1}
        argv += ["--thresholds", write(tmp_path, "thresholds.json", THRESHOLDS),
                 "--config", write_json(tmp_path, "config.json", config)]
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {path}:2: {message} must not contain a line break\n"
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


@pytest.mark.parametrize(
    ("command", "rubric", "config", "message"),
    [
        ("review", [1e308, 1e308], {"functional": {"kind": "linear", "coefficients": [1, 1]}},
         "consensus score is not finite"),
        ("bayes", [1e308], {"bayes": panel_bayes_config({"default": 1.0})["bayes"]},
         "posterior mean is not finite or its variance is 0"),
    ],
    ids=["review-score", "bayes-posterior"],
)
def test_overflow_exits_2_with_only_the_error_line(tmp_path, command, rubric, config, message):
    # a fresh interpreter, so a numpy RuntimeWarning would print to stderr as it does for users
    reviews = [{"reviewer": name, "rubric": rubric, "flag": False} for name in ("r1", "r2")]
    panels = write(tmp_path, "panels.jsonl", json.dumps({"id": "a", "reviews": reviews}) + "\n")
    config = {**config, "schema": {"criteria_count": len(rubric),
                                   "bounds": [[0, 1e308]] * len(rubric)}}
    argv = [command, "--panels", panels, "--config", write_json(tmp_path, "config.json", config),
            "--thresholds", write(tmp_path, "thresholds.json", THRESHOLDS),
            "--out", str(tmp_path / "runs")]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "panelcal.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {panels}:1: {message}\n"
    assert not (tmp_path / "runs").exists()


DEEP = "[" * 100_000 + "]" * 100_000  # nested deeper than the JSON decoder's recursion limit


@pytest.mark.parametrize("command", ["detector-eval", "calibrate-records", "calibrate-config"])
def test_too_deep_json_exits_2_with_only_the_error_line(tmp_path, command):
    deep_pool = '{"id": "c1", "score": ' + DEEP + ', "accept": true, "status": "s"}\n'
    if command == "detector-eval":
        bad = write(tmp_path, "panels.jsonl", DET_PANELS + DEEP + "\n")
        argv, where = ["detector-eval", "--panels", bad], f"{bad}:5"
    elif command == "calibrate-records":
        bad = write(tmp_path, "pool.jsonl", deep_pool)
        argv = ["calibrate", "--records", bad,
                "--config", write_json(tmp_path, "config.json", {"target_rate": 0.3})]
        where = f"{bad}:1"
    else:
        bad = write(tmp_path, "config.json", '{"target_rate": ' + DEEP + "}\n")
        argv = ["calibrate", "--records", write(tmp_path, "pool.jsonl", POOL), "--config", bad]
        where = bad
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "panelcal.cli", *argv, "--out", str(tmp_path / "runs")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {where}: invalid JSON: nested too deeply\n"
    assert not (tmp_path / "runs").exists()


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # from 3.10.7 on; 0: no limit
HUGE = "9" * (DIGIT_LIMIT + 1)  # one digit longer than json.loads converts


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")
@pytest.mark.parametrize("kind", ["panels", "pool", "config", "thresholds"])
def test_over_long_integer_exits_2_naming_the_file(tmp_path, capsys, kind):
    pool = write(tmp_path, "pool.jsonl", POOL)
    config = write_json(tmp_path, "config.json", {"target_rate": 0.3})
    if kind == "panels":
        line = '{"id": "p5", "label": true, "reviews": [{"reviewer": "m1", "rubric": [6, %s]}]}\n'
        bad = write(tmp_path, "panels.jsonl", DET_PANELS + line % HUGE)
        argv, where = ["detector-eval", "--panels", bad], f"{bad}:5"
    elif kind == "pool":
        bad = write(tmp_path, "pool.jsonl", POOL.replace("3.0", HUGE, 1))
        argv, where = ["calibrate", "--records", bad, "--config", config], f"{bad}:2"
    elif kind == "config":
        bad = write(tmp_path, "config.json", '{"target_rate": ' + HUGE + "}\n")
        argv, where = ["calibrate", "--records", pool, "--config", bad], bad
    else:
        bad = write(tmp_path, "thresholds.json", THRESHOLDS.replace("6}", HUGE + "}"))
        schema = {"schema": {"criteria_count": 2, "bounds": [[0, 10], [0, 10]]}}
        argv = ["review", "--panels", write(tmp_path, "panels.jsonl", PANELS), "--thresholds", bad,
                "--config", write_json(tmp_path, "review.json", schema)]
        where = bad
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {where}: invalid JSON: integer has more than {DIGIT_LIMIT} digits\n"
    assert not (tmp_path / "runs").exists()


def test_bayes_settings_checked_before_run_dir(tmp_path, capsys):
    panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
    for key, value, message in [
        ("alpha", 1.5, "config: bayes.alpha: must lie strictly in (0, 1), got 1.5"),
        ("solicit_variance", -1, "config: bayes.solicit_variance: must be finite and > 0, got -1.0"),
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


def test_simulate_variance_unequal_variances_name_the_config_key(tmp_path, capsys):
    noise = {"per_reviewer_variance": [1, 2, 3], "scalar_bounds": [1, 10]}
    config = write_json(tmp_path, "config.json",
                        {"simulate": {"variance": {"spec": dict(COHORT_SPEC, noise=noise)}}})
    out = str(tmp_path / "runs")
    # the config's m_grid, or an --m whose largest size keeps the 3 reviewers and their variances
    for m_flag in ([], ["--m", "1,3"]):
        code, _, err = run_cli(capsys, "simulate", "variance", "--config", config, "--out", out, *m_flag)
        assert code == 2
        assert err == ("error: config: simulate.variance.spec.noise: variance experiment needs "
                       "equal per-reviewer variances\n")
        assert not (tmp_path / "runs").exists()
    # an --m that resizes the cohort gives every reviewer the first one's variance
    code, stdout, _ = run_cli(capsys, "simulate", "variance", "--config", config, "--m", "1,2,4",
                              "--out", out)
    assert code == 0
    lines = (run_dir(stdout) / "variance.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "4"]


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


INFEASIBLE_NOISE = {"per_reviewer_variance": [1e6] * 3, "scalar_bounds": [1, 10]}


@pytest.mark.parametrize(
    "command, section",
    [
        ("margins", {"spec": dict(COHORT_SPEC, n_papers=200, noise=INFEASIBLE_NOISE,
                                  clip_mode="reject-resample")}),
        ("variance", {"spec": dict(COHORT_SPEC, n_papers=200, noise=INFEASIBLE_NOISE,
                                   clip_mode="reject-resample")}),
        ("threshold-error", {"population": dict(SMALL_POPULATION, size=200, noise=INFEASIBLE_NOISE,
                                                clip_mode="reject-resample"),
                             "n_cal_grid": [50, 100]}),
    ],
)
def test_reject_resample_that_cannot_converge_exits_2(tmp_path, command, section):
    # a fresh interpreter, so what a user would see on stderr is what the test reads
    config = write_json(tmp_path, "config.json",
                        {"simulate": {command.replace("-", "_"): section}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "panelcal.cli", "simulate", command, "--config", config,
         "--out", str(tmp_path / "runs")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: clip_mode: reject-resample did not converge in 1000 rounds\n"
    assert not (tmp_path / "runs").exists()


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
        (["variance", "--m", ","], None, "--m: expected at least one integer"),
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
         "m-empty-flag", "m-zero-config", "grid-below-2", "grid-flag-repeated", "one-replicate",
         "grid-floats", "grid-bool", "replicates-float", "seed-negative", "seed-float", "m-grid-floats",
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


def forbid_simulation_work(monkeypatch):
    """Make every simulation step fail, so a command that reaches one fails its test."""

    def no_work(*args, **kwargs):
        raise AssertionError("the arguments are checked before any simulation work")

    for name in ("generate_cohort", "margin_suite", "variance_experiment",
                 "synthetic_calibration_population", "threshold_bootstrap"):
        monkeypatch.setattr(simulate, name, no_work)


def test_threshold_error_zero_mean_error_fails_its_check_without_a_warning(tmp_path):
    # n_cal equal to the reference population's size draws all of it: a mean error of exactly 0, which
    # has no log; a fresh interpreter, so a numpy RuntimeWarning would print to stderr as it does for users
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "panelcal.cli", "simulate", "threshold-error",
         "--grid", "50,20000", "--replicates", "2", "--out", str(tmp_path / "runs")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 4
    assert proc.stderr == ""
    assert "\nlog-log slope: nan\n" in proc.stdout
    assert proc.stdout.endswith(
        "FAIL: error decays like 1/sqrt(n_cal), near-monotone\n"
        "  n_cal=20000: mean error 0 has no logarithm, so the log-log slope is undefined\n")
    assert (run_dir(proc.stdout) / "threshold_error.csv").read_text().splitlines()[2] == "20000,0.0,0.0,0"


@pytest.mark.parametrize(
    ("argv", "config", "where"),
    [(["--grid", "50"], None, "--grid"),
     ([], {"simulate": {"threshold_error": {"n_cal_grid": [50]}}},
      "config: simulate.threshold_error.n_cal_grid")],
    ids=["flag", "config"],
)
def test_threshold_error_one_point_grid_fails_before_the_bootstrap(tmp_path, capsys, monkeypatch,
                                                                   argv, config, where):
    forbid_simulation_work(monkeypatch)
    if config is not None:
        argv = [*argv, "--config", write_json(tmp_path, "config.json", config)]
    code, _, err = run_cli(capsys, "simulate", "threshold-error", *argv,
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {where}: the error curve needs at least 2 calibration sizes, got [50]\n"
    assert not (tmp_path / "runs").exists()


GRID_POPULATION = 30  # the population size the n_cal grids are checked against


@settings(max_examples=max(100, settings.default.max_examples))
@given(st.sampled_from(["m_grid", "n_cal_grid"]),
       st.one_of(st.just([]), st.lists(st.integers(-2, GRID_POPULATION + 3), min_size=1, max_size=4)))
@example("m_grid", [])
@example("m_grid", [0])
@example("m_grid", [-2, 3])
@example("m_grid", [3, 3, 1])
@example("n_cal_grid", [])
@example("n_cal_grid", [0, 5])
@example("n_cal_grid", [5, 5])
@example("n_cal_grid", [9, 5])
@example("n_cal_grid", [5, GRID_POPULATION + 1])
@example("n_cal_grid", [5])
@example("n_cal_grid", [1])
@example("n_cal_grid", [2, GRID_POPULATION])
def test_grid_rule_reads_the_same_at_every_door(key, grid):
    """The library, the flag and the config key word a grid's rule alike, and no bad grid runs."""
    if key == "m_grid":
        command, flag, section = "variance", "--m", {}
        rule = simulate.panel_sizes
    else:
        command, flag = "threshold-error", "--grid"
        section = {"population": dict(SMALL_POPULATION, size=GRID_POPULATION)}
        rule = lambda grid: simulate.error_curve_sizes(  # noqa: E731
            simulate.calibration_sizes(grid, GRID_POPULATION))
    try:
        sizes = rule(grid)
    except ValueError as exc:
        field, _, message = str(exc).partition(": ")
        assert field == key
    else:
        assert sizes == sorted(set(grid))
        return

    path = f"simulate.{command.replace('-', '_')}"
    doors = [([], {**section, key: grid}, f"config: {path}.{key}")]
    if grid:  # a flag holds at least one size
        doors.append(([f"{flag}={','.join(map(str, grid))}"], section, flag))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        forbid_simulation_work(monkeypatch)
        tmp_path = Path(tmp)
        for argv, settings_obj, name in doors:
            config = write_json(tmp_path, "config.json", {"simulate": {command.replace("-", "_"): settings_obj}})
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["simulate", command, *argv, "--config", config, "--out", str(tmp_path / "runs")])
            assert code == 2
            assert err.getvalue() == f"error: {name}: {message}\n"
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
    assert f"argument --seed: must be an integer >= 0, got {seed}\n" in capsys.readouterr().err
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


# ---------------------------------------------------------------- column cache


def cached_command(tmp_path, command):
    """(argv without --out, the JSONL input) of ``command`` on the small fixtures."""
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    if command == "review":
        panels = write(tmp_path, "panels.jsonl", PANELS)
        config = write_json(tmp_path, "config.json", {"schema": {"criteria_count": 2, "bounds": [[1, 10], [1, 10]]}})
        return ["review", "--panels", panels, "--thresholds", thresholds, "--config", config], panels
    if command == "bayes":
        panels = write(tmp_path, "panels.jsonl", BAYES_PANELS)
        config = write_json(tmp_path, "config.json", bayes_config("tau_05"))
        return ["bayes", "--panels", panels, "--thresholds", thresholds, "--config", config], panels
    if command == "detector-eval":
        panels = write(tmp_path, "panels.jsonl", DET_PANELS)
        return ["detector-eval", "--panels", panels], panels
    pool = write(tmp_path, "pool.jsonl", POOL)
    return ["calibrate", "--records", pool, "--config", write_json(tmp_path, "config.json", {"target_rate": 0.33})], pool


def run_outputs(capsys, argv, out):
    """The bytes of each output of a run that must succeed, and its manifest without the timestamps."""
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0, err
    d = run_dir(stdout)
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["started_at"], manifest["finished_at"]
    return {p.name: p.read_bytes() for p in d.iterdir() if p.name != "manifest.json"}, manifest


def entries(out):
    return sorted((out / ".panelcal-cache").iterdir())


@pytest.fixture
def parses(monkeypatch):
    """The paths of the JSONL files parsed, one entry a parse."""
    from panelcal import records

    paths = []
    parse = records._json_objects
    monkeypatch.setattr(records, "_json_objects", lambda path, text: paths.append(str(path)) or parse(path, text))
    return paths


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval", "calibrate"])
def test_a_cache_hit_gives_the_outputs_of_a_parse(tmp_path, capsys, parses, command):
    argv, source = cached_command(tmp_path, command)
    miss = run_outputs(capsys, argv, tmp_path / "runs")
    hit = run_outputs(capsys, argv, tmp_path / "runs")
    fresh = run_outputs(capsys, argv, tmp_path / "fresh")
    assert parses == [source, source]  # the second run parsed nothing
    assert hit == miss
    assert fresh == miss
    assert miss[1]["input_digests"][source] == hashlib.sha256(Path(source).read_bytes()).hexdigest()
    assert len(entries(tmp_path / "runs")) == 1


@pytest.fixture
def splits(monkeypatch):
    """A function giving the names of the string columns read a row at a time so far, of the tables the column
    cache gave."""
    from panelcal import cache, tables

    restored = []
    read = cache.read
    monkeypatch.setattr(cache, "read", lambda *args: restored.append(read(*args)) or restored[-1])

    def names():
        return sorted(field.name for table in filter(None, restored) for field in dataclasses.fields(table)
                      if isinstance(column := getattr(table, field.name), tables.Strings) and column._rows is not None)

    return names


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval", "calibrate", "stratified"])
def test_a_cache_hit_builds_no_per_row_strings(tmp_path, capsys, splits, command):
    """No command reads the feedback, ``review`` and ``bayes`` write the ids by their distinct strings and codes,
    ``calibrate`` reads only a pool's distinct statuses, to stratify it, and the panel commands read the roster
    a row at a time, which a hit splits on that first read."""
    argv, _ = cached_command(tmp_path, "calibrate" if command == "stratified" else command)
    if command == "stratified":
        argv[-1] = write_json(tmp_path, "config.json", {"target_rate": 0.33, "stratify": STRATIFY})
    run_outputs(capsys, argv, tmp_path / "runs")  # a miss: the cache gives no table
    assert splits() == []
    run_outputs(capsys, argv, tmp_path / "runs")
    assert splits() == ([] if command in ("calibrate", "stratified") else ["roster"])


def test_a_stratified_hit_samples_the_pool_by_code(tmp_path, capsys, monkeypatch, parses):
    """On a hit, ``calibrate.stratify`` bins the pool by its distinct statuses and takes the sample by code:
    neither the ids nor the statuses are split into rows.  The hit writes the miss's outputs byte for byte."""
    from panelcal import calibrate

    argv, pool = cached_command(tmp_path, "calibrate")
    argv[-1] = write_json(tmp_path, "config.json", {"target_rate": 0.33, "stratify": STRATIFY})
    stratify, seen = calibrate.stratify, []

    def spy(table, *args, **kwargs):
        result = stratify(table, *args, **kwargs)
        seen.append((table.ids._strings, table.ids._rows, table.statuses._rows))
        return result

    monkeypatch.setattr(calibrate, "stratify", spy)
    miss = run_outputs(capsys, argv, tmp_path / "runs")
    hit = run_outputs(capsys, argv, tmp_path / "runs")
    assert parses == [pool]
    assert seen[1] == (None, None, None)
    assert sorted(hit[0]) == ["calibration_report.txt", "curve.csv", "plan.json", "thresholds.json"]
    assert hit == miss


def test_panel_commands_share_one_entry(tmp_path, capsys, parses):
    argv, panels = cached_command(tmp_path, "detector-eval")
    run_outputs(capsys, argv, tmp_path / "runs")
    config = write_json(tmp_path, "review.json", {"functional": {"kind": "linear", "coefficients": [1.0]}})
    thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
    run_outputs(capsys, ["review", "--panels", panels, "--thresholds", thresholds, "--config", config],
                tmp_path / "runs")
    assert parses == [panels]
    assert len(entries(tmp_path / "runs")) == 1


# ids and reviewer names that a CSV writer must quote, or that only look like a cell boundary
AWKWARD = st.text(st.sampled_from(['a', ',', '"', '\t', '\x00', '\xa0']), min_size=1, max_size=4)


@st.composite
def awkward_panels(draw):
    """(JSONL text, the panel ids, the reviewer names) of 1-6 labelled panels of 1-4 reviewers."""
    ids = draw(st.lists(AWKWARD, min_size=1, max_size=6, unique=True))
    names = draw(st.lists(AWKWARD, min_size=1, max_size=4, unique=True))
    reviews = [draw(st.lists(st.sampled_from(names), min_size=1, max_size=len(names), unique=True)) for _ in ids]
    text = "".join(json.dumps({"id": i, "label": draw(st.booleans()), "reviews": [
        {"reviewer": name, "overall": draw(st.sampled_from([4.0, 6.5, 7.0, 9.0])), "flag": draw(st.booleans())}
        for name in panel]}) + "\n" for i, panel in zip(ids, reviews))
    return text, ids, sorted({name for panel in reviews for name in panel})


@settings(max_examples=max(30, settings.default.max_examples))
@given(awkward_panels())
@example(('{"id": "a\\u0000b", "label": true, "reviews": [{"reviewer": "m", "overall": 7, "flag": true}]}\n'
          '{"id": "t\\tab", "label": false, "reviews": [{"reviewer": "m", "overall": 4, "flag": false}]}\n'
          '{"id": "nb\\u00a0sp", "label": true, "reviews": [{"reviewer": "m", "overall": 6, "flag": false}]}\n'
          '{"id": "q\\"x", "label": false, "reviews": [{"reviewer": "m", "overall": 9, "flag": true}]}\n'
          '{"id": "c,d", "label": true, "reviews": [{"reviewer": "m", "overall": 5, "flag": false}]}\n',
          ["a\x00b", "t\tab", "nb\xa0sp", 'q"x', "c,d"], ["m"]))
def test_every_csv_reads_back_one_row_per_panel_or_reviewer(corpus):
    """``review``, ``bayes`` and ``detector-eval``, each a miss and then a hit into one ``--out``: ``csv.reader``
    gives back each CSV's header and one row per panel, or per reviewer, whose first cell is its input id."""
    import csv

    text, ids, roster = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        panels = write(tmp_path, "panels.jsonl", text)
        thresholds = write(tmp_path, "thresholds.json", THRESHOLDS)
        review = write_json(tmp_path, "review.json", {"functional": {"kind": "linear", "coefficients": [1.0]}})
        bayes = write_json(tmp_path, "bayes.json", bayes_config("tau_05"))
        commands = [
            (["review", "--panels", panels, "--thresholds", thresholds, "--config", review], "decisions.csv", ids),
            (["bayes", "--panels", panels, "--thresholds", thresholds, "--config", bayes], "bayes.csv", ids),
            (["detector-eval", "--panels", panels], "detector.csv", [*roster, "any", "random-baseline"]),
        ]
        for argv, name, firsts in commands:
            for _ in ("miss", "hit"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    assert main([*argv, "--out", str(tmp_path / "runs")]) == 0
                with open(run_dir(out.getvalue()) / name, newline="", encoding="utf-8") as file:
                    rows = list(csv.reader(file))
                assert [row[0] for row in rows[1:]] == firsts
                assert len(set(map(len, rows))) == 1
        assert len(entries(tmp_path / "runs")) == 1


@pytest.mark.parametrize("command", ["review", "bayes", "detector-eval", "calibrate"])
def test_each_jsonl_input_is_read_and_hashed_once(tmp_path, capsys, monkeypatch, parses, command):
    from panelcal import reader, rundir

    argv, source = cached_command(tmp_path, command)
    data = Path(source).read_bytes()
    reads, hashes, opened = [], [], []
    read_bytes, sha256, path_open = reader._read_bytes, hashlib.sha256, Path.open
    monkeypatch.setattr(reader, "_read_bytes", lambda path: reads.append(str(path)) or read_bytes(path))
    monkeypatch.setattr(rundir, "hashlib", types.SimpleNamespace(
        sha256=lambda *data_: hashes.extend(d for d in data_ if d == data) or sha256(*data_)))
    monkeypatch.setattr(Path, "open", lambda path, *args, **kwargs: opened.append(str(path))
                        or path_open(path, *args, **kwargs))
    for parsed in ([source], []):  # a miss, then a hit
        for seen in (reads, hashes, opened, parses):
            seen.clear()
        run_outputs(capsys, argv, tmp_path / "runs")
        assert reads.count(source) == 1
        assert len(hashes) == 1
        assert parses == parsed
        assert opened.count(source) == 1


def spoil_entry(entry, how):
    data = bytearray(entry.read_bytes())
    if how == "truncated":
        del data[-1]
    else:  # a byte of the first column, which only the trailing sha256 covers
        data[data.index(b"\n") + 1] ^= 1
    entry.write_bytes(bytes(data))


@pytest.mark.parametrize("spoil", ["truncated", "flipped-byte", "format", "version", "loader"])
def test_a_spoiled_entry_is_a_miss_and_is_rewritten(tmp_path, capsys, monkeypatch, parses, spoil):
    from panelcal import cache

    argv, source = cached_command(tmp_path, "review")
    out = tmp_path / "runs"
    with monkeypatch.context() as patch:
        if spoil == "format":
            patch.setattr(cache, "FORMAT", cache.FORMAT + 1)
        elif spoil == "version":
            patch.setattr(cache, "__version__", "0.0.0")
        elif spoil == "loader":  # the entry was written by other loader code
            patch.setattr(cache, "_loader_digest", lambda: "0" * 64)
        expected = run_outputs(capsys, argv, out)
    (entry,) = entries(out)
    if spoil in ("truncated", "flipped-byte"):
        spoil_entry(entry, spoil)
    spoiled = entry.read_bytes()
    assert run_outputs(capsys, argv, out) == expected
    assert parses == [source, source]
    assert entries(out) == [entry]
    assert entry.read_bytes() != spoiled
    assert run_outputs(capsys, argv, out) == expected
    assert parses == [source, source]  # the rewritten entry is a hit


def test_an_edited_input_replaces_its_entry(tmp_path, capsys, parses):
    argv, panels = cached_command(tmp_path, "review")
    out = tmp_path / "runs"
    before = run_outputs(capsys, argv, out)
    (entry,) = entries(out)
    with open(panels, "a", encoding="utf-8") as file:
        file.write('{"id": "p9", "reviews": [{"reviewer": "m1", "rubric": [9, 9], "flag": false}]}\n')
    after = run_outputs(capsys, argv, out)
    assert after[0] != before[0]
    assert after[1]["input_digests"] != before[1]["input_digests"]
    assert entries(out) == [entry]
    assert run_outputs(capsys, argv, out) == after
    assert parses == [panels, panels]


def test_the_entry_of_a_deleted_input_is_removed(tmp_path, capsys, parses):
    argv, panels = cached_command(tmp_path, "detector-eval")
    other = tmp_path / "other"
    other.mkdir()
    other_argv, other_panels = cached_command(other, "detector-eval")
    out = tmp_path / "runs"
    run_outputs(capsys, argv, out)
    (entry,) = entries(out)
    expected = run_outputs(capsys, other_argv, out)
    assert len(entries(out)) == 2
    Path(panels).unlink()
    assert run_outputs(capsys, other_argv, out) == expected  # a hit, which prunes the other entry
    assert entry not in entries(out)
    assert len(entries(out)) == 1
    assert parses == [panels, other_panels]


def test_an_entry_that_cannot_be_written_does_not_fail_the_run(tmp_path, capsys, parses):
    argv, pool = cached_command(tmp_path, "calibrate")
    out = tmp_path / "runs"
    blocker = out / ".panelcal-cache"
    out.mkdir()
    blocker.write_text("not a directory\n", encoding="utf-8")
    expected = run_outputs(capsys, argv, tmp_path / "fresh")
    assert run_outputs(capsys, argv, out) == expected
    assert run_outputs(capsys, argv, out) == expected
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"
    assert parses == [pool] * 3


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this Python converts integers of any length")
def test_an_entry_cached_without_a_digit_limit_is_not_used_under_one(tmp_path, capsys):
    argv, panels = cached_command(tmp_path, "review")
    lines = PANELS.splitlines(keepends=True)
    lines[1] = lines[1][:-2] + ', "x": ' + "9" * 5000 + "}\n"  # a field no command reads
    Path(panels).write_text("".join(lines), encoding="utf-8")
    sys.set_int_max_str_digits(0)
    try:
        run_outputs(capsys, argv, tmp_path / "runs")
    finally:
        sys.set_int_max_str_digits(DIGIT_LIMIT)
    assert len(entries(tmp_path / "runs")) == 1
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert err == f"error: {panels}:2: invalid JSON: integer has more than {DIGIT_LIMIT} digits\n"


@pytest.mark.parametrize("code", [2, 3])
def test_a_failed_run_leaves_no_cache(tmp_path, capsys, parses, code):
    if code == 2:  # the file parses, and its scores break the schema
        argv, source = cached_command(tmp_path, "review")
        write_json(tmp_path, "config.json", {"schema": {"criteria_count": 2, "bounds": [[1, 5], [1, 5]]}})
    else:
        argv, source = cached_command(tmp_path, "calibrate")
        write(tmp_path, "pool.jsonl", POOL.replace("true", "false"))
    out = tmp_path / "runs"
    assert run_cli(capsys, *argv, "--out", str(out))[0] == code
    assert not out.exists()
    out.mkdir()
    assert run_cli(capsys, *argv, "--out", str(out))[0] == code
    assert list(out.iterdir()) == []
    assert parses == [source, source]
