import bisect
import itertools
import json
import math
import re
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

import reference
from panelcal import calibrate
from panelcal.calibrate import (
    CellQuota,
    IsotonicCurve,
    StratificationPlan,
    TailCounts,
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
    # plan.json is ``asdict(plan)`` as JSON
    assert json.loads(json.dumps(asdict(plan))) == {
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
    with pytest.raises(ValueError, match=re.escape("score 10.5 outside bin_edges [0.0, 10.0]")):
        cell_populations(make_pool([10.5]), (0.0, 5.0, 10.0), ("accept",))
    with pytest.raises(ValueError, match=re.escape("status 'hold' not in status_vocabulary ['accept']")):
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


@pytest.mark.parametrize("n_cal", [True, 2.0, 0, 26])
def test_allocate_quotas_takes_an_integer_n_cal_within_the_pool(n_cal):
    pops = {(0, "a"): 20, (1, "a"): 5}
    with pytest.raises(ValueError) as info:
        allocate_quotas(pops, n_cal, (0.0, 1.0, 2.0), ("a",))
    assert str(info.value) == f"n_cal: must be an integer in [1, 25], got {n_cal!r}"


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


@st.composite
def cell_populations_and_n_cal(draw):
    """(populations, n_cal, edges, vocabulary) with a non-empty pool and a feasible n_cal."""
    edges = tuple(float(e) for e in range(draw(st.integers(2, 5))))
    vocab = ("accept", "reject", "hold")[:draw(st.integers(1, 3))]
    keys = [(b, s) for b in range(len(edges) - 1) for s in vocab]
    counts = draw(st.lists(st.integers(0, 60) | st.just(0), min_size=len(keys),
                           max_size=len(keys)).filter(any))
    n_cal = draw(st.integers(1, sum(counts)))
    return dict(zip(keys, counts)), n_cal, edges, vocab


@settings(max_examples=max(300, settings.default.max_examples))
@given(cell_populations_and_n_cal())
def test_allocate_quotas_matches_reallocation_loop(case):
    overflows = []
    want = reference.allocate_quotas(*case, overflows=overflows)
    assert allocate_quotas(*case) == want
    assert overflows == []  # the loop never moves a unit past its largest remainders


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


# a pool whose last record binning would blame, as its status is in no vocabulary below: the edge
# and vocabulary rules must fail first
STRATA_POOL = make_pool([1.0, 2.0, 3.0, 4.0], statuses=["accept", "accept", "accept", "hold"])
STRATA_CALLS = {
    "cell_populations": lambda pool, edges, vocabulary: cell_populations(pool, edges, vocabulary),
    "stratify": lambda pool, edges, vocabulary: stratify(pool, 2, edges, vocabulary, 0),
    # a plan built by hand, past StratificationPlan's own checks
    "stratified_sample": lambda pool, edges, vocabulary: stratified_sample(
        pool, SimpleNamespace(bin_edges=edges, status_vocabulary=vocabulary, cells=()), 0),
}
STRATA_FAULTS = {
    "edges-empty": ((), ("accept",), "bin_edges: need at least 2 edges, got 0"),
    "edges-one": ((0.0,), ("accept",), "bin_edges: need at least 2 edges, got 1"),
    "edges-decreasing": ((10.0, 0.0), ("accept",), "bin_edges: must be strictly increasing, got [10.0, 0.0]"),
    "edges-nan": ((0.0, math.nan, 10.0), ("accept",), "bin_edges[1]: must be finite, got nan"),
    "vocabulary-repeated": ((0.0, 10.0), ("accept", "accept"), "status_vocabulary: entries must be unique"),
    "vocabulary-empty": ((0.0, 10.0), (), "status_vocabulary: must be non-empty"),
}


@pytest.mark.parametrize("call", STRATA_CALLS.values(), ids=STRATA_CALLS.keys())
@pytest.mark.parametrize("edges, vocabulary, message", STRATA_FAULTS.values(), ids=STRATA_FAULTS.keys())
@pytest.mark.parametrize("form", ["records", "table"])
def test_stratification_checks_edges_and_vocabulary_before_binning(call, edges, vocabulary, message, form):
    pool = STRATA_POOL if form == "records" else CalibrationTable.from_records(STRATA_POOL)
    with pytest.raises(ValueError) as info:
        call(pool, edges, vocabulary)
    assert type(info.value) is ValueError
    assert str(info.value) == message


# ---------------------------------------------------------------- thresholds


def test_empirical_acceptance():
    assert empirical_acceptance([1.0, 2.0, 3.0, 4.0], 3.0) == 0.5
    assert empirical_acceptance([1.0], math.inf) == 0.0
    with pytest.raises(ValueError, match="scores"):
        empirical_acceptance([], 3.0)
    assert empirical_acceptance(np.arange(4), 2) == 0.5  # integer scores pass as they are


@pytest.mark.parametrize(("scores", "shown"), [
    (["1"], "'1'"), ([2.0, "1"], "'1'"), ([True, False], "True"), (np.array([False]), "np.False_"),
    ([True, 0.5], "True"),
], ids=["string", "string-after-a-number", "bools", "numpy-bools", "bool-with-a-float"])
@pytest.mark.parametrize("fit", [
    lambda scores: empirical_acceptance(scores, 0.5),
    lambda scores: rate_matching_threshold(scores, 0.5),
    lambda scores: tau05_from_scores(scores, [1] * len(scores)),
], ids=["empirical_acceptance", "rate_matching_threshold", "tau05_from_scores"])
def test_scores_that_are_not_numbers_are_refused_as_the_number_rule_words_it(fit, scores, shown):
    # numpy would convert each of these to a float; a list is checked entry by entry, an array by its dtype
    k = next(k for k, score in enumerate(scores) if not isinstance(score, float))
    with pytest.raises(ValueError) as raised:
        fit(scores)
    assert str(raised.value) == f"scores[{k}]: must be a number, got {shown}"


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


@st.composite
def pava_columns(draw):
    """(values in [0, 1], weights > 0): tied values, equal weights, a single point, long decreasing runs."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        values = draw(st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    runs = [sorted(values[a:b], reverse=True) for a, b in zip([0, *cuts], [*cuts, n])]
    if draw(st.booleans()):  # decreasing runs, each merged into one block
        values = [v for run in runs for v in run]
    weight = st.one_of(st.integers(1, 1000).map(float), st.floats(1e-3, 1e3))
    weights = [draw(weight)] * n if draw(st.booleans()) else draw(st.lists(weight, min_size=n, max_size=n))
    return np.array(values), np.array(weights)


@given(pava_columns())
@example((np.array([0.5]), np.array([2.0])))
@example((np.linspace(1.0, 0.0, 60), np.ones(60)))
def test_pava_kernel_is_the_reference_loop_bit_for_bit(columns):
    values, weights = columns
    got = calibrate._pava(values, weights)
    want = reference.pava(values.tolist(), weights.tolist())
    assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))


@given(pava_columns())
@example((np.array([0.5]), np.array([2.0])))
def test_pava_kernel_matches_scipy(columns):
    values, weights = columns
    want = isotonic_regression(values, weights=weights).x
    np.testing.assert_allclose(calibrate._pava(values, weights), want, rtol=0, atol=1e-12)


@given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, -0.0, 2.0, 3.5]) | st.floats(-10, 10), st.booleans()),
                min_size=1, max_size=60))
def test_tail_curve_is_the_isotonic_fit_of_the_tail_points(pool):
    scores, accepts = (list(column) for column in zip(*pool))
    t, raw, weight, fitted = TailCounts.of(np.array(scores), np.array(accepts)).curve()
    points = tail_probability_points(make_pool(scores, accepts=accepts), t.tolist())
    curve = isotonic_fit(points)
    for got, want in zip((t, raw, weight, fitted), (*zip(*points), curve.fitted)):
        assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


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


@pytest.mark.parametrize(
    ("points", "message"),
    [
        ([(1.0, 0.5, 1.0), (2.0, math.nan, 1.0)], "points[1]: value must lie in [0, 1], got nan"),
        ([(1.0, 0.5, 1.0), (2, -0.5, 1)], "points[1]: value must lie in [0, 1], got -0.5"),
        ([(1.0, 0.5, math.inf)], "points[0]: weight must be finite and > 0, got inf"),
        # every value is checked before any weight
        ([(1.0, 0.5, 0.0), (2.0, 0.6, 1.0), (3.0, 1.5, 1.0)], "points[2]: value must lie in [0, 1], got 1.5"),
    ],
)
def test_isotonic_fit_names_the_first_bad_point(points, message):
    with pytest.raises(ValueError) as got:
        isotonic_fit(points)
    assert str(got.value) == message


@pytest.mark.parametrize(
    ("knots", "message"),
    [
        (((1.0, 0.2, 1.0), (math.inf, 0.5, 1.0)), "knots[1]: threshold must be finite, got inf"),
        (((1.0, 0.2, 1.0), (2.0, 1.5, 1.0)), "knots[1]: fitted value must lie in [0, 1], got 1.5"),
        (((1.0, -0.1, 1.0), (2.0, 0.5, 1.0)), "knots[0]: fitted value must lie in [0, 1], got -0.1"),
        (((1.0, 0.2, 1.0), (2.0, 0.5, 0.0)), "knots[1]: weight must be finite and > 0, got 0.0"),
        # the first bad knot wins, and on one knot the threshold comes before the value
        (((1.0, 0.2, -1.0), (math.nan, 2.0, 1.0)), "knots[0]: weight must be finite and > 0, got -1.0"),
        (((math.nan, 2.0, 1.0),), "knots[0]: threshold must be finite, got nan"),
        # each knot is checked before the order of the knots
        (((2.0, 0.2, 1.0), (1.0, 0.5, 1.0), (3.0, 0.5, 0.0)), "knots[2]: weight must be finite and > 0, got 0.0"),
        (((1.0, 0.6, 1.0), (2.0, 0.5, 1.0), (2.0, 0.7, 1.0)), "knots: fitted values must be non-decreasing"),
        (((1.0, 0.5, 1.0), (1.0, 0.4, 1.0)), "knots: thresholds must be strictly increasing"),
    ],
)
def test_isotonic_curve_names_the_first_bad_knot(knots, message):
    with pytest.raises(ValueError) as got:
        IsotonicCurve(knots)
    assert str(got.value) == message


def test_isotonic_curve_clips_values_within_tolerance():
    curve = IsotonicCurve(((1, -1e-13, 2), (2, 0.5, 1), (3, 1 + 1e-13, 1)))
    assert curve.knots == ((1.0, 0.0, 2.0), (2.0, 0.5, 1.0), (3.0, 1.0, 1.0))
    assert all(type(x) is float for knot in curve.knots for x in knot)


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


def test_fit_tau05_ranks_the_pool_once(monkeypatch):
    calls = []
    rank = TailCounts.of
    monkeypatch.setattr(TailCounts, "of", classmethod(lambda cls, *args: calls.append(1) or rank(*args)))
    records = make_pool([1.0, 2.0, 2.0, 3.0], accepts=[False, True, False, True])
    for pool in (records, CalibrationTable.from_records(records)):
        calls.clear()
        fit_tau05(pool)
        assert calls == [1]


def three_rankings(pool):
    """``fit_tau05`` as ``tau05_from_scores`` and the points at the distinct scores, each ranking the pool;
    the points first, so an empty pool is refused as ``records``, the argument both take."""
    table = pool if isinstance(pool, CalibrationTable) else CalibrationTable.from_records(pool)
    curve = isotonic_fit(tail_probability_points(pool, TailCounts.of(table.scores).scores))
    return tau05_from_scores(table.scores, table.accepts), curve


def outcome(fit, pool):
    try:
        return repr(fit(pool))
    except ValueError as exc:  # ThresholdUnreachableError included
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=max(300, settings.default.max_examples))
@given(
    st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 7.0]), st.booleans()), max_size=30),
    st.sampled_from(["drawn", "all-reject", "all-accept"]),
    st.booleans(),
)
@example([], "drawn", False)
@example([], "drawn", True)
@example([(1.0, True)], "drawn", False)
@example([(1.0, False)], "drawn", True)
@example([(0.0, False), (-0.0, True), (0.5, True)], "drawn", False)
@example([(-0.0, True), (0.0, False), (0.5, True)], "drawn", True)
@example([(0.5, False), (1.0, True), (1.5, False), (1.5, False)], "drawn", False)
def test_fit_tau05_matches_three_rankings(pairs, mode, as_table):
    # a 0.5 grid holding 0.0 and -0.0: ties, signed zeros, one record, an empty and an unreachable pool
    accepts = [{"drawn": a, "all-reject": False, "all-accept": True}[mode] for _, a in pairs]
    pool = make_pool([score for score, _ in pairs], accepts=accepts)
    if as_table:
        pool = CalibrationTable.from_records(pool)
    assert outcome(fit_tau05, pool) == outcome(three_rankings, pool)


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


@settings(max_examples=max(300, settings.default.max_examples))
@given(
    st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.1, 1e-300, 2.5, 2.5000000000000004, 7.0]),
                       st.booleans()), min_size=1, max_size=60),
    st.sampled_from(["drawn", "all-reject", "all-accept"]),
)
def test_tau05_from_scores_matches_suffix_sum_reference(pairs, mode):
    scores = np.array([score for score, _ in pairs])
    accepts = np.array([{"drawn": a, "all-reject": False, "all-accept": True}[mode]
                        for _, a in pairs])
    try:
        want = reference.tau05_from_scores(scores, accepts)
    except ThresholdUnreachableError as exc:
        with pytest.raises(ThresholdUnreachableError) as got:
            tau05_from_scores(scores, accepts)
        assert str(got.value) == str(exc)
        return
    got = tau05_from_scores(scores, accepts)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_tau05_from_scores_rejects_bad_inputs():
    with pytest.raises(ValueError, match="accepts: must be 0 or 1"):
        tau05_from_scores([1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="accepts: must be 0 or 1"):
        tau05_from_scores([1.0], [math.nan])
    with pytest.raises(ValueError, match=r"^accepts: expected 2 entries, got 1$"):
        tau05_from_scores([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="^scores: must be non-empty$"):
        tau05_from_scores([], [])
