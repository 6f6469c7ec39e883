"""Independent correctness oracle for the benchmark's CLI outputs.

Everything is recomputed in numpy from the generator's own arrays, never
from the files the program parsed, and compared with what the program
wrote: counts and booleans exactly, floats within ``REL_TOL`` relative.
Each check returns a list of mismatch messages; empty means it agreed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import BAYES_PRIOR, DKW_ARGS, TARGET_RATE, THRESHOLDS, Inputs

REL_TOL = 1e-9
_MAX_REPORTED = 5  # mismatch messages kept per check


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _bools(column: list[str]) -> np.ndarray:
    return np.array([v == "True" for v in column])


def _compare(errors: list[str], what: str, ids, expected, actual, exact: bool) -> None:
    expected, actual = np.asarray(expected), np.asarray(actual)
    if expected.shape != actual.shape:
        errors.append(f"{what}: expected {expected.shape[0]} values, got {actual.shape[0]}")
        return
    if exact:
        bad = np.nonzero(expected != actual)[0]
    else:
        bad = np.nonzero(np.abs(expected - actual) > REL_TOL * np.maximum(np.abs(expected), np.abs(actual)))[0]
    for i in bad[:_MAX_REPORTED]:
        errors.append(f"{what}[{ids[i]}]: expected {expected[i].item()!r}, got {actual[i].item()!r}")
    if bad.size > _MAX_REPORTED:
        errors.append(f"{what}: {bad.size - _MAX_REPORTED} more mismatches")


def _compare_rows(errors: list[str], what: str, expected: dict, got: dict) -> None:
    if set(got) != set(expected):
        errors.append(f"{what}: rows differ: {sorted(set(got) ^ set(expected))[:_MAX_REPORTED]}")
    for key in sorted(set(got) & set(expected)):
        if got[key] != expected[key]:
            errors.append(f"{what} {key}: expected {expected[key]}, got {got[key]}")


# ------------------------------------------------------------ recomputation


def review_means(inputs: Inputs) -> np.ndarray:
    """(P, 4) per-review scores under the uniform-mean functional."""
    return inputs.rubric.mean(axis=2)


def panel_scores(inputs: Inputs) -> np.ndarray:
    """Consensus scores with uniform or GLS (inverse-variance) weights."""
    mask = inputs.mask
    if inputs.gls_variances is None:
        weights = mask / inputs.n_reviews[:, None]
    else:
        inverse = mask / inputs.gls_variances[inputs.reviewer]
        weights = inverse / inverse.sum(axis=1, keepdims=True)
    return (weights * review_means(inputs)).sum(axis=1)


def per_reviewer(inputs: Inputs, select: np.ndarray) -> np.ndarray:
    """Per-roster-index count of existing reviews where ``select`` holds."""
    return np.bincount(inputs.reviewer[inputs.mask & select], minlength=len(inputs.roster_ids))


def present_reviewers(inputs: Inputs) -> list[int]:
    """Roster indices that review at least one panel, in id order."""
    present = np.unique(inputs.reviewer[inputs.mask])
    return sorted(present.tolist(), key=lambda r: inputs.roster_ids[r])


def tau_rate(scores: np.ndarray, target: float) -> float:
    """Smallest distinct score whose tail share is closest to the target."""
    uniq, first = np.unique(np.sort(scores), return_index=True)
    gaps = np.abs((scores.size - first) / scores.size - target)
    best = min(float(gaps.min()), target)  # accepting nothing has gap == target
    hits = np.nonzero(gaps == best)[0]
    return float(uniq[hits[0]]) if hits.size else math.inf


def tau_05(scores: np.ndarray, accepts: np.ndarray) -> float | None:
    """tau_05 in integer arithmetic: the first argmin of the suffix sum of N_k - 2 A_k.

    N_k and A_k are the record and accept counts with score >= the k-th
    distinct score.  The isotonic tail fit reaches 1/2 first at that index;
    an argmin past the last score means it never does (None).
    """
    uniq, inverse = np.unique(scores, return_inverse=True)
    n_at = np.bincount(inverse)
    a_at = np.bincount(inverse, weights=accepts).astype(np.int64)
    tail_n = np.cumsum(n_at[::-1])[::-1]
    tail_a = np.cumsum(a_at[::-1])[::-1]
    suffix = np.append(np.cumsum((tail_n - 2 * tail_a)[::-1])[::-1], 0)
    k = int(np.argmin(suffix))
    return None if k == uniq.size else float(uniq[k])


# ------------------------------------------------------------ checks


def check_manifest(run_dir: Path, inputs: list[Path], config: Path | None) -> list[str]:
    """Re-hash every output, input and the config against the run's manifest."""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    errors = []
    if manifest.get("config_digest") != (None if config is None else _sha256(config)):
        errors.append("manifest: config digest mismatch")
    if manifest.get("finished_at") is None:
        errors.append("manifest: run not finalized")
    outputs = manifest.get("output_digests", {})
    on_disk = sorted(p.name for p in run_dir.iterdir() if p.is_file() and p.name != "manifest.json")
    if sorted(outputs) != on_disk:
        errors.append(f"manifest: lists {sorted(outputs)}, directory holds {on_disk}")
    for name, digest in outputs.items():
        if (run_dir / name).is_file() and _sha256(run_dir / name) != digest:
            errors.append(f"manifest: digest mismatch for {name}")
    digests = manifest.get("input_digests", {})
    for path in inputs:
        if digests.get(str(path)) != _sha256(path):
            errors.append(f"manifest: input digest mismatch for {path.name}")
    return errors


def check_review(inputs: Inputs, run_dir: Path) -> list[str]:
    errors: list[str] = []
    rows = _read_csv(run_dir / "decisions.csv")
    ids = [r["id"] for r in rows]
    if ids != inputs.panel_ids:
        return ["decisions.csv: panel ids or order differ"]
    scores = panel_scores(inputs)
    any_flag = (inputs.flags & inputs.mask).any(axis=1)
    _compare(errors, "score", ids, scores, [float(r["score"]) for r in rows], exact=False)
    for label in ("tau_rate", "tau_05"):
        _compare(errors, f"accept_{label}", ids, scores >= THRESHOLDS[label],
                 _bools([r[f"accept_{label}"] for r in rows]), exact=True)
    _compare(errors, "any_flag", ids, any_flag, _bools([r["any_flag"] for r in rows]), exact=True)

    n = len(ids)
    flagged = per_reviewer(inputs, inputs.flags)
    expected: dict[tuple[str, str], tuple[str, str]] = {}
    for label in ("tau_rate", "tau_05"):
        accepted = scores >= THRESHOLDS[label]
        expected[("acpt", label)] = (str(int(accepted.sum())), str(n))
        conflicts = per_reviewer(inputs, inputs.flags & accepted[:, None])
        for r in present_reviewers(inputs):
            expected[(f"conflict_{label}", inputs.roster_ids[r])] = (
                str(conflicts[r]) if flagged[r] else "", str(flagged[r]))
        any_flagged = int(any_flag.sum())
        expected[(f"conflict_{label}", "any")] = (
            str(int((any_flag & accepted).sum())) if any_flagged else "", str(any_flagged))
    appearances = per_reviewer(inputs, np.ones_like(inputs.flags))
    for r in present_reviewers(inputs):
        expected[("icr", inputs.roster_ids[r])] = (str(flagged[r]), str(appearances[r]))
    expected[("icr", "any")] = (str(int(any_flag.sum())), str(n))

    rows = _read_csv(run_dir / "metrics.csv")
    _compare_rows(errors, "metrics.csv", expected,
                  {(r["metric"], r["scope"]): (r["numerator"], r["denominator"]) for r in rows})
    for r in rows:
        num, den = expected.get((r["metric"], r["scope"]), ("", "0"))
        if int(den) and not _close(float(r["value"] or "nan"), int(num) / int(den)):
            errors.append(f"metrics.csv {r['metric']}/{r['scope']}: value {r['value']} is not {num}/{den}")
    return errors


def check_bayes(inputs: Inputs, run_dir: Path) -> list[str]:
    errors: list[str] = []
    rows = _read_csv(run_dir / "bayes.csv")
    ids = [r["id"] for r in rows]
    if ids != inputs.panel_ids:
        return ["bayes.csv: panel ids or order differ"]
    mask = inputs.mask
    if inputs.review_variances is None:
        variance = np.ones(inputs.reviewer.shape)
    else:
        variance = inputs.review_variances[inputs.reviewer]
    prior_mean, prior_var = BAYES_PRIOR["prior_mean"], BAYES_PRIOR["prior_variance"]
    precision = 1.0 / prior_var + (mask / variance).sum(axis=1)
    weighted = prior_mean / prior_var + (mask * review_means(inputs) / variance).sum(axis=1)
    _compare(errors, "n_reviews", ids, inputs.n_reviews, [int(r["n_reviews"]) for r in rows], exact=True)
    _compare(errors, "posterior_mean", ids, weighted / precision,
             [float(r["posterior_mean"]) for r in rows], exact=False)
    _compare(errors, "posterior_variance", ids, 1.0 / precision,
             [float(r["posterior_variance"]) for r in rows], exact=False)
    return errors


def check_detector(inputs: Inputs, run_dir: Path) -> list[str]:
    label = inputs.labels
    flags = inputs.flags
    # (tp, fp, tn, fn): flags are the predictions, labels the truth
    cells = [(flags, label), (flags, ~label), (~flags, ~label), (~flags, label)]
    counts = [per_reviewer(inputs, f & lab[:, None]) for f, lab in cells]
    expected = {inputs.roster_ids[r]: tuple(str(c[r]) for c in counts)
                for r in present_reviewers(inputs)}
    any_flag = (flags & inputs.mask).any(axis=1)
    any_cells = [(any_flag, label), (any_flag, ~label), (~any_flag, ~label), (~any_flag, label)]
    expected["any"] = tuple(str(int((f & lab).sum())) for f, lab in any_cells)
    expected["random-baseline"] = ("", "", "", "")
    errors: list[str] = []
    _compare_rows(errors, "detector.csv", expected,
                  {r["reviewer"]: (r["tp"], r["fp"], r["tn"], r["fn"])
                   for r in _read_csv(run_dir / "detector.csv")})
    return errors


def check_calibrate(inputs: Inputs, run_dir: Path) -> list[str]:
    got = json.loads((run_dir / "thresholds.json").read_text(encoding="utf-8"))
    errors = []
    want_rate = tau_rate(inputs.pool_scores, TARGET_RATE)
    if not (got["tau_rate"] == want_rate or _close(got["tau_rate"], want_rate)):  # == covers inf
        errors.append(f"tau_rate: expected {want_rate!r}, got {got['tau_rate']!r}")
    want_05 = tau_05(inputs.pool_scores, inputs.pool_accepts)
    if want_05 is None or not _close(got["tau_05"], want_05):
        errors.append(f"tau_05: expected {want_05!r}, got {got['tau_05']!r}")
    if got["calibration_size"] != inputs.pool_scores.size:
        errors.append(f"calibration_size: expected {inputs.pool_scores.size}, got {got['calibration_size']}")
    return errors


def check_threshold_error(inputs: Inputs, run_dir: Path) -> list[str]:
    checks = (run_dir / "checks.txt").read_text(encoding="utf-8").splitlines()
    errors = [f"checks.txt: {line}" for line in checks if line.startswith("FAIL")]
    if not any(line.startswith("PASS") for line in checks) and not errors:
        errors.append("checks.txt: no PASS line")
    rows = _read_csv(run_dir / "threshold_error.csv")
    if len(rows) != 5:  # the default n_cal grid
        errors.append(f"threshold_error.csv: expected 5 rows, got {len(rows)}")
    return errors


def expected_dkw() -> str:
    n, delta = int(DKW_ARGS[1]), float(DKW_ARGS[3])
    return f"{math.sqrt(math.log(4.0 / delta) / (2.0 * n)):.6g}"


# command -> (output check, manifest input files, config file)
CHECKS = {
    "review": (check_review, ("panels", "thresholds"), "config"),
    "bayes": (check_bayes, ("panels", "thresholds"), "config"),
    "detector_eval": (check_detector, ("panels",), None),
    "calibrate": (check_calibrate, ("pool",), "calibrate_config"),
    "threshold_error": (check_threshold_error, (), None),
}


def verify(command: str, inputs: Inputs, stdout: str) -> list[str]:
    """Locate the run directory from the CLI's stdout and check everything in it."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith("run directory: ")]
    if len(lines) != 1:
        return [f"{command}: expected one 'run directory:' line, got {len(lines)}"]
    run_dir = Path(lines[0][len("run directory: "):])
    check, input_keys, config_key = CHECKS[command]
    config = None if config_key is None else inputs.files[config_key]
    try:
        errors = check_manifest(run_dir, [inputs.files[k] for k in input_keys], config)
        errors += check(inputs, run_dir)
    except (OSError, ValueError, KeyError) as exc:
        errors = [f"unreadable output: {exc!r}"]
    return [f"{command}: {e}" for e in errors]
