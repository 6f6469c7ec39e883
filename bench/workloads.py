"""Seeded workload generator for the panelcal benchmark (stdlib + numpy only).

Every workload carries a panel corpus and a calibration pool, so every
CLI command runs on every workload; the workload decides which of the
two inputs is large.  ``generate`` draws all inputs from the seed, writes
the files the program reads, and returns the arrays the oracle recomputes
the outputs from.  The program never sees anything but the written files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 4  # rubric criteria
MAX_REVIEWERS = 4  # reviewers per panel are drawn from 2..4
FLAG_P = 0.1
LABEL_P = 0.2
TARGET_RATE = 0.3
# Fixed thresholds, so the panel commands do not depend on `calibrate`.
# Both sit off the lattice of uniform-weight scores (multiples of 1/4800),
# so an accept/reject call never hinges on the last bit of a sum.
THRESHOLDS = {"tau_rate": 6.1234567, "tau_05": 5.8765432,
              "target_rate": TARGET_RATE, "calibration_size": 1000}
BAYES_PRIOR = {"prior_mean": 5.5, "prior_variance": 4.0, "alpha": 0.05}
DKW_ARGS = ("--n", "200", "--delta", "0.05")


@dataclass(frozen=True)
class Spec:
    """Sizes and modes of one workload."""

    name: str
    panels: int
    roster: int
    gls: bool  # GLS weights plus per-reviewer bayes variances
    pool: int
    replicates: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Sizes keep one round of all five commands near 10 s on a 2-CPU machine,
# so a run holds several interleaved rounds and reports per-command medians.
SPECS = {
    s.name: s
    for s in (
        Spec("corpus-r5", panels=20_000, roster=5, gls=False, pool=5_000, replicates=200),
        Spec("roster-r300", panels=4_000, roster=300, gls=True, pool=5_000, replicates=200),
        Spec("calibration", panels=2_000, roster=5, gls=False, pool=100_000, replicates=1000),
    )
}
SMOKE_DIVISOR = 20  # --smoke shrinks panels and pool by this factor, replicates to 200


@dataclass
class Inputs:
    """Generated arrays (for the oracle) and the files written from them."""

    spec: Spec
    seed: int
    roster_ids: list[str]
    panel_ids: list[str]
    n_reviews: np.ndarray  # (P,) reviewers per panel
    reviewer: np.ndarray  # (P, 4) roster indices; columns >= n_reviews unused
    rubric: np.ndarray  # (P, 4, K)
    flags: np.ndarray  # (P, 4) bool
    labels: np.ndarray  # (P,) bool
    gls_variances: np.ndarray | None  # (R,)
    review_variances: np.ndarray | None  # (R,)
    pool_scores: np.ndarray  # (N,)
    pool_accepts: np.ndarray  # (N,) bool
    replicates: int
    files: dict[str, Path]

    @property
    def mask(self) -> np.ndarray:
        """(P, 4) True where a review exists."""
        return np.arange(MAX_REVIEWERS)[None, :] < self.n_reviews[:, None]

    def properties(self) -> dict:
        hist = np.bincount(self.n_reviews, minlength=MAX_REVIEWERS + 1)
        return {
            "panels": len(self.panel_ids),
            "roster": len(self.roster_ids),
            "reviewers_per_panel": {str(m): int(hist[m]) for m in range(2, MAX_REVIEWERS + 1)},
            "criteria": K,
            "flag_rate": round(float(self.flags[self.mask].mean()), 6),
            "label_rate": round(float(self.labels.mean()), 6),
            "pool_records": int(self.pool_scores.size),
            "pool_distinct_scores": int(np.unique(self.pool_scores).size),
            "replicates": self.replicates,
            "bytes": {name: path.stat().st_size for name, path in sorted(self.files.items())},
        }


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def generate(spec: Spec, seed: int, out_dir: Path, smoke: bool = False) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write them under ``out_dir``."""
    n_panels = max(spec.panels // SMOKE_DIVISOR, 50) if smoke else spec.panels
    n_pool = max(spec.pool // SMOKE_DIVISOR, 500) if smoke else spec.pool
    panel_rng, pool_rng, config_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence([seed]).spawn(3)
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    width = len(str(spec.roster))
    roster_ids = [f"r{i:0{width}d}" for i in range(1, spec.roster + 1)]
    n_reviews = panel_rng.integers(2, MAX_REVIEWERS + 1, n_panels)
    # distinct reviewers per panel: the first 4 of a random permutation of the roster
    reviewer = np.argsort(panel_rng.random((n_panels, spec.roster)), axis=1)[:, :MAX_REVIEWERS]
    latent = panel_rng.uniform(3.0, 8.0, n_panels)
    noise = panel_rng.standard_normal((n_panels, MAX_REVIEWERS, K))
    rubric = np.clip(np.round(latent[:, None, None] + noise, 2), 1.0, 10.0)
    flags = panel_rng.random((n_panels, MAX_REVIEWERS)) < FLAG_P
    labels = panel_rng.random(n_panels) < LABEL_P
    pwidth = len(str(n_panels))
    panel_ids = [f"p{i:0{pwidth}d}" for i in range(1, n_panels + 1)]

    lines = []
    rub_list, rev_list, flag_list = rubric.tolist(), reviewer.tolist(), flags.tolist()
    for i, pid in enumerate(panel_ids):
        reviews = [
            {"reviewer": roster_ids[rev_list[i][j]], "rubric": rub_list[i][j], "flag": flag_list[i][j]}
            for j in range(int(n_reviews[i]))
        ]
        lines.append(json.dumps({"id": pid, "label": bool(labels[i]), "reviews": reviews}))
    files = {"panels": out_dir / "panels.jsonl"}
    files["panels"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    pool_scores = np.round(pool_rng.uniform(1.0, 10.0, n_pool), 3)
    prob = 1.0 / (1.0 + np.exp(-2.0 * (pool_scores - 6.5)))
    pool_accepts = pool_rng.random(n_pool) < prob
    cwidth = len(str(n_pool))
    files["pool"] = out_dir / "pool.jsonl"
    files["pool"].write_text(
        "".join(
            json.dumps({"id": f"c{i + 1:0{cwidth}d}", "score": s, "accept": a,
                        "status": "accept" if a else "reject"}) + "\n"
            for i, (s, a) in enumerate(zip(pool_scores.tolist(), pool_accepts.tolist()))
        ),
        encoding="utf-8",
    )

    config: dict = {
        "schema": {"criteria_count": K, "bounds": [[1.0, 10.0]] * K},
        "weights": "uniform",
        "bayes": {**BAYES_PRIOR, "threshold": "tau_05", "review_variances": {"default": 1.0}},
    }
    gls_variances = review_variances = None
    if spec.gls:
        gls_variances = np.round(config_rng.uniform(0.5, 2.0, spec.roster), 4)
        review_variances = np.round(config_rng.uniform(0.5, 2.0, spec.roster), 4)
        config["weights"] = "gls"
        config["gls_variances"] = dict(zip(roster_ids, gls_variances.tolist()))
        config["bayes"]["review_variances"].update(zip(roster_ids, review_variances.tolist()))
    files["config"] = _write_json(out_dir / "config.json", config)
    files["thresholds"] = _write_json(out_dir / "thresholds.json", THRESHOLDS)
    files["calibrate_config"] = _write_json(
        out_dir / "calibrate.json", {"target_rate": TARGET_RATE, "delta": 0.05}
    )
    return Inputs(
        spec=spec, seed=seed, roster_ids=roster_ids, panel_ids=panel_ids,
        n_reviews=n_reviews, reviewer=reviewer, rubric=rubric, flags=flags, labels=labels,
        gls_variances=gls_variances, review_variances=review_variances,
        pool_scores=pool_scores, pool_accepts=pool_accepts,
        replicates=min(spec.replicates, 200) if smoke else spec.replicates, files=files,
    )


def commands(inputs: Inputs) -> dict[str, list[str]]:
    """CLI argument lists, keyed by metric prefix, in the order they run."""
    f = {k: str(v) for k, v in inputs.files.items()}
    return {
        "review": ["review", "--panels", f["panels"], "--thresholds", f["thresholds"],
                   "--config", f["config"]],
        "bayes": ["bayes", "--panels", f["panels"], "--thresholds", f["thresholds"],
                  "--config", f["config"]],
        "detector_eval": ["detector-eval", "--panels", f["panels"]],
        "calibrate": ["calibrate", "--records", f["pool"], "--config", f["calibrate_config"]],
        "threshold_error": ["simulate", "threshold-error", "--replicates",
                            str(inputs.replicates), "--seed", str(inputs.seed)],
    }
