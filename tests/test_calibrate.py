import bisect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcal.calibrate import (
    CellQuota,
    IsotonicCurve,
    StratificationPlan,
    ThresholdUnreachableError,
    allocate_quotas,
    cell_populations,
    empirical_acceptance,
    fit_tau05,
    isotonic_fit,
    rate_matching_threshold,
    stratified_sample,
    stratify,
    tail_probability_points,
    tau05_from_scores,
    tau_05,
)
from panelcal.core import CalibrationRecord
from panelcal.records import CalibrationTable


def make_pool(scores, statuses=None, accepts=None):
    n = len(scores)
    statuses = statuses or ["accept"] * n
    accepts = accepts if accepts is not None else [True] * n
    return [
        CalibrationRecord(f"s{i:03d}", float(sc), bool(acc), st)
        for i, (sc, st, acc) in enumerate(zip(scores, statuses, accepts))
    ]


# ---------------------------------------------------------------- plans


def test_cell_quota_validation():
    with pytest.raises(ValueError, match="quota"):
        CellQuota(0, "accept", 2, 3)
    with pytest.raises(ValueError, match="bin_index"):
        CellQuota(-1, "accept", 2, 1)


def test_plan_validation_and_round_trip():
    plan = StratificationPlan(
        (0.0, 5.0, 10.0),
        ("accept", "reject"),
        (
            CellQuota(0, "accept", 10, 2),
            CellQuota(1, "reject", 6, 3),
        ),
    )
    assert plan.n_cal == 5
    assert plan.to_dict() == {
        "bin_edges": [0.0, 5.0, 10.0],
        "status_vocabulary": ["accept", "reject"],
        "cells": [
            {"bin_index": 0, "status": "accept", "population": 10, "quota": 2},
            {"bin_index": 1, "status": "reject", "population": 6, "quota": 3},
        ],
    }
    with pytest.raises(ValueError, match="strictly increasing"):
        StratificationPlan((0.0, 0.0), ("a",), (CellQuota(0, "a", 1, 1),))
    with pytest.raises(ValueError, match="duplicate cell"):
        StratificationPlan(
            (0.0, 1.0),
            ("a",),
            (CellQuota(0, "a", 1, 1), CellQuota(0, "a", 2, 1)),
        )
    with pytest.raises(ValueError, match="out of range"):
        StratificationPlan((0.0, 1.0), ("a",), (CellQuota(1, "a", 1, 1),))


def test_cell_populations_bins_top_edge_inclusive():
    pool = make_pool([0.0, 4.9, 5.0, 10.0])
    counts = cell_populations(pool, (0.0, 5.0, 10.0), ("accept",))
    assert counts == {(0, "accept"): 2, (1, "accept"): 2}
    with pytest.raises(ValueError, match="outside binning range"):
        cell_populations(make_pool([10.5]), (0.0, 5.0, 10.0), ("accept",))
    with pytest.raises(ValueError, match="not in vocabulary"):
        cell_populations(make_pool([1.0], statuses=["hold"]), (0.0, 10.0), ("accept",))


def test_allocate_quotas_exact_shares():
    pops = {(0, "a"): 50, (1, "a"): 30, (2, "a"): 20}
    plan = allocate_quotas(pops, 10, (0.0, 1.0, 2.0, 3.0), ("a",))
    assert [c.quota for c in plan.cells] == [5, 3, 2]
    assert plan.n_cal == 10


def test_allocate_quotas_remainder_tie_prefers_first_cell():
    pops = {(0, "a"): 10, (1, "a"): 10, (2, "a"): 5}
    plan = allocate_quotas(pops, 4, (0.0, 1.0, 2.0, 3.0), ("a",))
    # shares 1.6 / 1.6 / 0.8; the last leftover goes to the tied earlier bin
    assert [c.quota for c in plan.cells] == [2, 1, 1]


def test_allocate_quotas_properties():
    rng = np.random.default_rng(5)
    vocab = ("accept", "reject")
    edges = (0.0, 1.0, 2.0, 3.0)
    for _ in range(100):
        pops = {
            (b, s): int(rng.integers(0, 40))
            for b in range(3)
            for s in vocab
        }
        total = sum(pops.values())
        if total == 0:
            continue
        n_cal = int(rng.integers(1, total + 1))
        plan = allocate_quotas(pops, n_cal, edges, vocab)
        assert plan.n_cal == n_cal
        for cell in plan.cells:
            pop = pops[(cell.bin_index, cell.status)]
            assert cell.population == pop
            assert 0 <= cell.quota <= pop
            share = n_cal * pop / total
            if cell.quota < pop:
                assert abs(cell.quota - share) < 1.0


def test_allocate_quotas_rejects_bad_inputs():
    with pytest.raises(ValueError, match="n_cal"):
        allocate_quotas({(0, "a"): 5}, 6, (0.0, 1.0), ("a",))
    with pytest.raises(ValueError, match="unknown cell"):
        allocate_quotas({(3, "a"): 5}, 2, (0.0, 1.0), ("a",))
    with pytest.raises(ValueError, match="pool is empty"):
        allocate_quotas({(0, "a"): 0}, 1, (0.0, 1.0), ("a",))


def test_stratified_sample_deterministic_and_matches_quotas():
    rng = np.random.default_rng(9)
    scores = rng.uniform(0.0, 3.0, 120)
    statuses = ["accept" if x else "reject" for x in rng.integers(0, 2, 120)]
    pool = make_pool(scores, statuses)
    edges = (0.0, 1.0, 2.0, 3.0)
    vocab = ("accept", "reject")
    plan = allocate_quotas(cell_populations(pool, edges, vocab), 30, edges, vocab)
    first = stratified_sample(pool, plan, seed=42)
    second = stratified_sample(pool, plan, seed=42)
    assert first == second
    assert len(first) == 30
    got = cell_populations(first, edges, vocab)
    want = {(c.bin_index, c.status): c.quota for c in plan.cells if c.quota}
    assert got == want
    ids = [r.submission_id for r in first]
    assert ids == sorted(ids)  # pool order preserved
    other = stratified_sample(pool, plan, seed=43)
    assert other != first


def record_order_sample(pool, plan, seed):
    """The draw one record at a time: each cell's members in pool order."""
    members = {}
    for idx, rec in enumerate(pool):
        b = min(bisect.bisect_right(plan.bin_edges, rec.agent_score) - 1, len(plan.bin_edges) - 2)
        members.setdefault((b, rec.status), []).append(idx)
    rng = np.random.default_rng(seed)
    chosen = []
    for cell in plan.cells:
        if cell.quota:
            available = members[(cell.bin_index, cell.status)]
            picks = rng.choice(len(available), size=cell.quota, replace=False)
            chosen.extend(available[i] for i in picks)
    return [pool[i] for i in sorted(chosen)]


@settings(max_examples=max(60, settings.default.max_examples))
@given(st.integers(1, 400), st.integers(0, 2**32 - 1), st.floats(0.01, 1.0))
def test_stratified_sample_matches_record_order_draw(size, seed, fraction):
    rng = np.random.default_rng(seed)
    vocab = ("accept", "reject", "hold")
    # a 0.5 grid, so scores fall on the edges too
    scores = rng.integers(0, 21, size) / 2
    pool = make_pool(scores.tolist(), statuses=[vocab[k] for k in rng.integers(0, 3, size)],
                     accepts=(rng.random(size) < 0.5).tolist())
    edges = (0.0, 2.5, 5.0, 7.5, 10.0)
    n_cal = max(1, round(fraction * size))
    plan, sample = stratify(pool, n_cal, edges, vocab, seed)
    assert plan == allocate_quotas(cell_populations(pool, edges, vocab), n_cal, edges, vocab)
    expected = record_order_sample(pool, plan, seed)
    assert sample == expected
    assert stratified_sample(pool, plan, seed) == expected
    table = CalibrationTable.from_records(pool)
    assert stratified_sample(table, plan, seed).ids == tuple(r.submission_id for r in expected)


def test_stratified_sample_infeasible_names_cell():
    pool = make_pool([0.5, 0.6])
    plan = StratificationPlan(
        (0.0, 1.0, 2.0),
        ("accept",),
        (CellQuota(1, "accept", 3, 2),),
    )
    with pytest.raises(ValueError, match=r"cell \(1, 'accept'\)"):
        stratified_sample(pool, plan, seed=1)


# ---------------------------------------------------------------- thresholds


def test_empirical_acceptance():
    assert empirical_acceptance([1.0, 2.0, 3.0, 4.0], 3.0) == 0.5
    assert empirical_acceptance([1.0], math.inf) == 0.0
    with pytest.raises(ValueError, match="scores"):
        empirical_acceptance([], 3.0)


def test_rate_matching_exact_hit():
    scores = [float(v) for v in range(1, 11)]
    assert rate_matching_threshold(scores, 0.3) == 8.0
    assert rate_matching_threshold(scores, 0.3173) == 8.0


def test_rate_matching_tie_prefers_smallest_threshold():
    scores = [float(v) for v in range(1, 11)]
    # 0.45 sits exactly between acceptance 0.5 (tau=6) and 0.4 (tau=7)
    assert rate_matching_threshold(scores, 0.45) == 6.0


def test_rate_matching_sentinel_when_all_rates_too_high():
    assert rate_matching_threshold([5.0, 5.0, 5.0], 0.05) == math.inf
    # sentinel ties with acceptance from the largest score: finite wins
    assert rate_matching_threshold([5.0, 6.0], 0.25) == 6.0


def test_rate_matching_is_brute_force_optimal():
    rng = np.random.default_rng(17)
    for _ in range(60):
        scores = rng.choice(np.arange(1.0, 9.0), size=rng.integers(1, 25)).tolist()
        target = float(rng.uniform(0.05, 0.95))
        tau = rate_matching_threshold(scores, target)
        got_gap = abs(empirical_acceptance(scores, tau) - target)
        for cand in sorted(set(scores)) + [math.inf]:
            gap = abs(empirical_acceptance(scores, cand) - target)
            assert got_gap <= gap + 1e-12
            if gap == got_gap and cand < tau:
                pytest.fail(f"smaller tied candidate {cand} ignored (tau={tau})")


def test_tail_probability_points_fixture():
    records = make_pool(
        [1.0, 2.0, 3.0, 4.0, 5.0],
        accepts=[False, False, False, True, True],
    )
    points = tail_probability_points(records, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert points == [
        (1.0, 0.4, 5.0),
        (2.0, 0.5, 4.0),
        (3.0, 2.0 / 3.0, 3.0),
        (4.0, 1.0, 2.0),
        (5.0, 1.0, 1.0),
    ]
    with pytest.raises(ValueError, match="strictly increasing"):
        tail_probability_points(records, [1.0, 1.0])
    with pytest.raises(ValueError, match="no records with score >= 9.0"):
        tail_probability_points(records, [9.0])


# ---------------------------------------------------------------- isotonic fit


def pava_oracle(values, weights):
    """Exact optimum by enumerating contiguous block partitions (n <= 16)."""
    n = len(values)
    best_cost, best_fit = None, None
    for cuts in itertools.product((0, 1), repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        means = []
        for lo, hi in zip(bounds, bounds[1:]):
            w = sum(weights[lo:hi])
            means.append(sum(v * u for v, u in zip(values[lo:hi], weights[lo:hi])) / w)
        if any(a > b for a, b in zip(means, means[1:])):
            continue
        fit = []
        for mean, (lo, hi) in zip(means, zip(bounds, bounds[1:])):
            fit.extend([mean] * (hi - lo))
        cost = sum(w * (v - f) ** 2 for v, f, w in zip(values, fit, weights))
        if best_cost is None or cost < best_cost - 1e-15:
            best_cost, best_fit = cost, fit
    return best_fit


def test_isotonic_fit_matches_partition_oracle():
    rng = np.random.default_rng(23)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        values = rng.uniform(0.0, 1.0, n).tolist()
        weights = rng.uniform(0.5, 5.0, n).tolist()
        points = [(float(i), v, w) for i, (v, w) in enumerate(zip(values, weights))]
        fitted = isotonic_fit(points).fitted
        oracle = pava_oracle(values, weights)
        np.testing.assert_allclose(fitted, oracle, atol=1e-9)


def test_isotonic_fit_invariants():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        values = rng.uniform(0.0, 1.0, n)
        weights = rng.uniform(0.5, 5.0, n)
        points = [(float(i), float(v), float(w)) for i, (v, w) in enumerate(zip(values, weights))]
        curve = isotonic_fit(points)
        fitted = np.asarray(curve.fitted)
        assert np.all(np.diff(fitted) >= -1e-12)
        # weighted mean is preserved
        assert np.dot(weights, fitted) == pytest.approx(np.dot(weights, values), rel=1e-12)
        # fitting a monotone vector is the identity, so the fit is idempotent
        again = isotonic_fit([(float(i), float(v), float(w)) for i, (v, w) in enumerate(zip(fitted, weights))])
        np.testing.assert_allclose(again.fitted, fitted, atol=1e-12)


def test_isotonic_fit_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        isotonic_fit([(1.0, 0.5, 1.0), (1.0, 0.6, 1.0)])
    with pytest.raises(ValueError, match=r"points\[0\]"):
        isotonic_fit([(1.0, 1.5, 1.0)])
    with pytest.raises(ValueError, match=r"points\[1\]"):
        isotonic_fit([(1.0, 0.5, 1.0), (2.0, 0.6, 0.0)])


def test_isotonic_curve_validation():
    curve = IsotonicCurve(((1.0, 0.25, 3.0), (2.0, 0.75, 1.0)))
    assert curve.thresholds == (1.0, 2.0)
    assert curve.fitted == (0.25, 0.75)
    assert curve.weights == (3.0, 1.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        IsotonicCurve(((1.0, 0.75, 1.0), (2.0, 0.25, 1.0)))


def test_tau_05_first_crossing():
    curve = IsotonicCurve(((1.0, 0.2, 1.0), (2.0, 0.5, 1.0), (3.0, 0.9, 1.0)))
    assert tau_05(curve) == 2.0
    assert tau_05(curve, level=0.8) == 3.0
    with pytest.raises(ThresholdUnreachableError, match="never reaches 0.95"):
        tau_05(curve, level=0.95)
    with pytest.raises(ValueError, match="level"):
        tau_05(curve, level=0.0)


def test_fit_tau05_fixture():
    records = make_pool(
        [1.0, 2.0, 3.0, 4.0, 5.0],
        accepts=[False, False, False, True, True],
    )
    tau, curve = fit_tau05(records)
    assert tau == 2.0
    assert curve.fitted == (0.4, 0.5, 2.0 / 3.0, 1.0, 1.0)


def test_fit_tau05_unreachable():
    records = make_pool([1.0, 2.0, 3.0], accepts=[False, False, False])
    with pytest.raises(ThresholdUnreachableError):
        fit_tau05(records)


@settings(max_examples=max(300, settings.default.max_examples))
@given(
    st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=40),
    st.sampled_from(["drawn", "all-reject", "all-accept"]),
)
def test_tau05_from_scores_matches_record_route(pairs, mode):
    # scores on a 0.5 grid, so most draws have ties
    scores = [k / 2 for k, _ in pairs]
    accepts = [{"drawn": a, "all-reject": False, "all-accept": True}[mode] for _, a in pairs]
    records = make_pool(scores, accepts=accepts)
    curve = isotonic_fit(tail_probability_points(records, sorted(set(scores))))
    try:
        expected = tau_05(curve)
    except ThresholdUnreachableError as exc:
        with pytest.raises(ThresholdUnreachableError) as got:
            tau05_from_scores(scores, accepts)
        assert str(got.value) == str(exc)
        assert str(got.value).startswith("fitted curve never reaches 0.5 (max fitted value ")
        return
    assert tau05_from_scores(scores, accepts) == expected
    assert tau05_from_scores(np.array(scores), np.array(accepts, dtype=float)) == expected


def test_tau05_from_scores_rejects_bad_inputs():
    with pytest.raises(ValueError, match="accepts: must be 0 or 1"):
        tau05_from_scores([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="accepts: must be 0 or 1"):
        tau05_from_scores([1.0], [math.nan])
    with pytest.raises(ValueError, match="match accepts"):
        tau05_from_scores([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="non-empty"):
        tau05_from_scores([], [])
