"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL
line (bypassing capture) so a plain pytest run shows the whole gate at
a glance.  Tolerances are part of the contract; do not loosen them.
"""

import itertools
import math

import numpy as np
import pytest

from panelcal import config
from panelcal.aggregate import decide, gls_weights, panel_variance
from panelcal.bayes import acceptance_probability, posterior_update
from panelcal.bounds import dkw_bound
from panelcal.calibrate import allocate_quotas, cell_populations, isotonic_fit, stratified_sample
from panelcal.core import (
    CalibrationRecord,
    ConfusionCounts,
    GaussianPosterior,
    ReviewPanel,
    ReviewRecord,
    RubricVector,
)
from panelcal.metrics import acpt, detector_metrics, format_percent, icr_any, icr_per_model
from panelcal.simulate import (
    check_margin_dominance,
    check_margin_ordering,
    check_threshold_rows,
    check_variance_rows,
    error_curve_slope,
    margin_suite,
    synthetic_calibration_population,
    threshold_bootstrap,
    variance_experiment,
)


@pytest.fixture
def emit(capsys):
    def _emit(line):
        with capsys.disabled():
            print(line)

    return _emit


def check(emit, number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {number:02d} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    emit(line)
    assert ok, line


def test_criterion_01_dkw_bound_value(emit):
    value = dkw_bound(200, 0.05)
    check(emit, 1, "dkw bound at n=200, delta=0.05",
          abs(value - 0.104666) < 1e-6, f"value={value:.8f}")


def test_criterion_02_margin_bound_dominance_and_ordering(emit):
    [margins] = config.load(None, "simulate.margins")
    rows = margin_suite(**margins)
    failures = check_margin_dominance(rows) + check_margin_ordering(rows)
    check(emit, 2, "margin bound dominates empirical error; larger panels no worse",
          not failures, failures[0] if failures else f"{len(rows)} bin rows")


def test_criterion_03_variance_ratio_and_proxy(emit):
    [variance] = config.load(None, "simulate.variance")
    spec, m_grid = variance["spec"], variance["m_grid"]
    rows = variance_experiment(spec, m_grid)
    failures = check_variance_rows(rows)
    by_m = {row.m: row for row in rows}
    ratio = by_m[1].var_empirical / by_m[3].var_empirical
    lo, hi = spec.noise.scalar_bounds
    proxy_exact = all(row.proxy == (hi - lo) ** 2 / row.m for row in rows)
    ok = not failures and 2.5 <= ratio <= 3.5 and proxy_exact
    check(emit, 3, "consensus variance scales like 1/M with exact range proxy",
          ok, f"var(M=1)/var(M=3)={ratio:.3f}")


def test_criterion_04_threshold_error_decay(emit):
    [bootstrap] = config.load(None, "simulate.threshold_error")
    population = synthetic_calibration_population(bootstrap["population"])
    rows = threshold_bootstrap(
        population, bootstrap["n_cal_grid"], bootstrap["replicates"], bootstrap["seed"]
    )
    failures = check_threshold_rows(rows)
    slope = error_curve_slope(rows)
    err_200 = next(row.mean_abs_err for row in rows if row.n_cal == 200)
    check(emit, 4, "threshold error decays like 1/sqrt(n_cal)",
          not failures, f"slope={slope:.4f}, err@200={err_200:.4f}")


def brute_force_isotonic(values, weights):
    """Minimum-cost monotone fit by enumerating contiguous partitions."""
    n = len(values)
    best = None
    best_cost = math.inf
    for mask in range(1 << (n - 1)):
        blocks = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                blocks.append((start, i + 1))
                start = i + 1
        blocks.append((start, n))
        means = []
        for lo, hi in blocks:
            w = sum(weights[lo:hi])
            means.append(sum(weights[k] * values[k] for k in range(lo, hi)) / w)
        if any(a > b + 1e-12 for a, b in zip(means, means[1:])):
            continue
        fitted = []
        for (lo, hi), mean in zip(blocks, means):
            fitted.extend([mean] * (hi - lo))
        cost = sum(w * (v - f) ** 2 for w, v, f in zip(weights, values, fitted))
        if cost < best_cost:
            best_cost = cost
            best = fitted
    return best


def test_criterion_05_isotonic_fit_matches_oracle(emit):
    rng = np.random.default_rng(20260819)
    worst_gap = 0.0
    worst_mean = 0.0
    worst_refit = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        values = rng.uniform(0.0, 1.0, size=n)
        weights = rng.uniform(0.1, 5.0, size=n)
        points = [(float(i), float(v), float(w)) for i, (v, w) in enumerate(zip(values, weights))]
        curve = isotonic_fit(points)
        oracle = brute_force_isotonic(values.tolist(), weights.tolist())
        worst_gap = max(worst_gap, max(abs(a - b) for a, b in zip(curve.fitted, oracle)))
        total_w = float(np.sum(weights))
        mean_raw = float(np.dot(weights, values)) / total_w
        mean_fit = float(np.dot(weights, curve.fitted)) / total_w
        worst_mean = max(worst_mean, abs(mean_fit - mean_raw))
        refit = isotonic_fit([(t, f, w) for t, f, w in
                              zip(curve.thresholds, curve.fitted, curve.weights)])
        worst_refit = max(worst_refit, max(abs(a - b) for a, b in
                                           zip(refit.fitted, curve.fitted)))
    ok = worst_gap <= 1e-3 and worst_mean <= 1e-12 and worst_refit <= 1e-12
    check(emit, 5, "isotonic fit matches brute-force oracle on 1000 instances",
          ok, f"max |fit-oracle|={worst_gap:.2e}, mean drift={worst_mean:.2e}, "
              f"refit drift={worst_refit:.2e}")


def test_criterion_06_gls_weights_beat_simplex_grid(emit):
    grid = np.array([(i / 100, j / 100, (100 - i - j) / 100)
                     for i in range(101) for j in range(101 - i)])
    grid_sq = grid ** 2
    rng = np.random.default_rng(6)
    worst = -math.inf
    for _ in range(200):
        variances = rng.uniform(0.1, 5.0, size=3)
        weights = gls_weights(variances.tolist())
        optimum = panel_variance(weights, variances.tolist())
        grid_best = float(np.min(grid_sq @ variances))
        worst = max(worst, optimum - grid_best)
    check(emit, 6, "precision weights beat every 0.01-step simplex weighting",
          worst <= 1e-12, f"max excess over grid minimum={worst:.2e}")


def test_criterion_07_stratified_sampler_properties(emit):
    rng = np.random.default_rng(7)
    statuses = ("accept", "reject", "revise")
    failures = []
    for trial in range(50):
        size = int(rng.integers(30, 200))
        pool = [
            CalibrationRecord(
                f"s{trial}-{i}",
                float(rng.uniform(0.0, 10.0)),
                bool(rng.integers(0, 2)),
                statuses[int(rng.integers(0, 3))],
            )
            for i in range(size)
        ]
        edges = (0.0, float(rng.uniform(2.0, 8.0)), 10.0)
        populations = cell_populations(pool, edges, statuses)
        total = sum(populations.values())
        n_cal = int(rng.integers(1, total + 1))
        plan = allocate_quotas(populations, n_cal, edges, statuses)
        if sum(cell.quota for cell in plan.cells) != n_cal:
            failures.append(f"trial {trial}: quotas do not sum to n_cal")
        for cell in plan.cells:
            population = populations[(cell.bin_index, cell.status)]
            share = n_cal * population / total
            if cell.quota > population:
                failures.append(f"trial {trial}: quota exceeds cell population")
            elif abs(cell.quota - share) >= 1:
                failures.append(f"trial {trial}: quota off share by {abs(cell.quota - share):.3f}")
        first = stratified_sample(pool, plan, seed=11)
        second = stratified_sample(pool, plan, seed=11)
        if [r.submission_id for r in first] != [r.submission_id for r in second]:
            failures.append(f"trial {trial}: sample not deterministic for a fixed seed")
        if len(first) != n_cal:
            failures.append(f"trial {trial}: sample size {len(first)} != {n_cal}")
    check(emit, 7, "stratified quotas exact, within 1 of proportional share, deterministic",
          not failures, failures[0] if failures else "50 random pools")


def test_criterion_08_detector_row_fidelity(emit):
    metrics = detector_metrics(ConfusionCounts(tp=49, fp=42, tn=8, fn=1))
    row = [format_percent(metrics.tpr), format_percent(metrics.fpr),
           format_percent(metrics.accuracy), format_percent(metrics.f1)]
    zero_tp = detector_metrics(ConfusionCounts(tp=0, fp=3, tn=5, fn=2))
    ok = row == ["98.0%", "84.0%", "57.0%", "69.5%"] and zero_tp.f1 == 0.0
    check(emit, 8, "confusion counts reproduce the reference row at one decimal",
          ok, "/".join(row))


def test_criterion_09_posterior_exactness_and_invariance(emit):
    posterior = posterior_update(GaussianPosterior(5.0, 4.0), [(7.0, 1.0)])
    exact = posterior.mean == 6.6 and posterior.variance == 0.8

    reviews = [(6.2, 1.0), (7.5, 0.5), (4.8, 2.0), (8.1, 1.5), (5.5, 0.8)]
    reference = posterior_update(GaussianPosterior(5.0, 4.0), reviews)
    worst = 0.0
    for perm in itertools.islice(itertools.permutations(reviews), 100):
        shuffled = posterior_update(GaussianPosterior(5.0, 4.0), list(perm))
        worst = max(worst, abs(shuffled.mean - reference.mean),
                    abs(shuffled.variance - reference.variance))

    at_mean = abs(acceptance_probability(posterior, posterior.mean) - 0.5)
    ok = exact and worst <= 1e-12 and at_mean <= 1e-7
    check(emit, 9, "conjugate update exact, order-invariant, half at its own mean",
          ok, f"mean={posterior.mean!r}, var={posterior.variance!r}, "
              f"perm drift={worst:.2e}")


def test_criterion_10_rate_metric_formulas_on_fixed_panels(emit):
    # observational tables depend on external review transcripts, which are
    # out of scope here; the formulas themselves are pinned on hand fixtures
    decisions = [decide(score, 7.0) for score in (7.0, 6.0, 8.0)]
    flag_sets = ({"m1"}, set(), {"m1", "m3"})
    panels = []
    for i, flags in enumerate(flag_sets):
        reviews = tuple(
            ReviewRecord(r, RubricVector((5.0,)), integrity_flag=r in flags)
            for r in ("m1", "m2", "m3")
        )
        panels.append(ReviewPanel(f"s{i + 1}", reviews))
    ok = (
        acpt(decisions) == pytest.approx(2 / 3)
        and icr_any(panels) == pytest.approx(2 / 3)
        and icr_per_model(panels, "m1") == pytest.approx(2 / 3)
        and icr_per_model(panels, "m2") == 0.0
        and icr_per_model(panels, "m3") == pytest.approx(1 / 3)
    )
    check(emit, 10, "acceptance and flag rates on fixed panels",
          ok, f"acpt={acpt(decisions):.3f}, icr_any={icr_any(panels):.3f}")
