"""Tests of the benchmark itself, on --smoke inputs (run: python3 -m pytest bench -q)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import SPECS, commands, generate  # noqa: E402

COUNTS = ("records.lines", "core.objects", "core.panel_lookups", "metrics.panels_scanned",
          "calibrate.tau05_calls", "calibrate.unreachable", "cli.io_bytes")


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(SPECS))
def test_end_to_end_metrics_match_declaration(workload):
    result = bench(workload, 3, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_and_match_declaration():
    first, second = (bench("roster-r300", 5, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == declared("per_layer")
    counted = [n for n, unit in got.items() if unit == "count"]
    assert {n.split(".", 1)[1] for n in counted} >= set(COUNTS)
    for name in counted:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_missing_program_fails_without_result(tmp_path):
    for name in ("run.py", "workloads.py", "oracle.py", "tracer.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibration", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("seed", range(20))
def test_integer_tau05_matches_isotonic_fit(seed):
    from panelcal.calibrate import ThresholdUnreachableError, tau05_from_scores

    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(1, 10, 300), 1)
    accepts = rng.random(300) < 1 / (1 + np.exp(-(scores - rng.uniform(4, 11))))
    try:
        want = tau05_from_scores(scores, accepts.astype(float))
    except ThresholdUnreachableError:
        want = None
    assert oracle.tau_05(scores, accepts) == want


def test_oracle_flags_a_wrong_count(tmp_path):
    from panelcal import cli

    inputs = generate(SPECS["corpus-r5"], 9, tmp_path / "inputs", smoke=True)
    out = []
    for name in ("review", "detector_eval"):
        argv = [*commands(inputs)[name], "--out", str(tmp_path / "runs")]
        _, code, stdout = run.run_inprocess(cli, argv)
        assert code == 0 and oracle.verify(name, inputs, stdout) == []
        out.append(Path(stdout.split("run directory: ")[1].strip()))
    review_dir, detector_dir = out
    text = (review_dir / "metrics.csv").read_text().splitlines()
    metric, scope, value, num, den = text[1].split(",")
    text[1] = ",".join((metric, scope, value, str(int(num) + 1), den))
    (review_dir / "metrics.csv").write_text("\n".join(text) + "\n")
    assert oracle.check_review(inputs, review_dir)
    assert oracle.check_manifest(review_dir, [inputs.files["panels"], inputs.files["thresholds"]],
                                 inputs.files["config"])
    inputs.flags[0, 0] = ~inputs.flags[0, 0]
    assert oracle.check_detector(inputs, detector_dir)
