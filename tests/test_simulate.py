import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from panelcal import calibrate, config, simulate
from panelcal.bounds import margin_misclassification_bound, scalar_bound_inputs
from panelcal.calibrate import ThresholdUnreachableError
from panelcal.core import CalibrationRecord, NoiseProfile, ReviewerWeights
from panelcal.records import CalibrationTable
from panelcal.simulate import (
    Cohort,
    CohortSpec,
    LatentDistribution,
    MarginBinRow,
    Population,
    PopulationSettings,
    ThresholdErrorRow,
    VarianceRow,
    check_margin_dominance,
    check_margin_ordering,
    check_threshold_rows,
    check_variance_rows,
    error_curve_slope,
    generate_cohort,
    margin_experiment,
    margin_suite,
    slice_cohort,
    synthetic_calibration_population,
    threshold_bootstrap,
    variance_experiment,
)


def small_spec(m=3, seed=5, clip_mode="clip", sigma=1.0, n=400):
    return CohortSpec(
        n_papers=n,
        m_reviewers=m,
        latent=LatentDistribution.uniform(4.0, 7.0),
        noise=NoiseProfile((sigma,) * m, (1.0, 10.0)),
        clip_mode=clip_mode,
        seed=seed,
    )


# ---------------------------------------------------------------- specs


def test_latent_distribution_validation_and_round_trip():
    uni = config.parse(config.LATENT, {"kind": "uniform", "lo": 2, "hi": 9.0})
    assert uni == LatentDistribution.uniform(2.0, 9.0)
    gauss = config.parse(config.LATENT, {"kind": "gaussian", "mean": 5.0, "sd": 1.5})
    assert gauss == LatentDistribution.gaussian(5.0, 1.5)
    with pytest.raises(ValueError, match="kind"):
        config.parse(config.LATENT, {"kind": "beta", "lo": 1, "hi": 2})
    with pytest.raises(ValueError, match="param_a"):
        LatentDistribution.uniform(3.0, 3.0)
    with pytest.raises(ValueError, match="param_b"):
        LatentDistribution.gaussian(5.0, 0.0)
    with pytest.raises(ValueError, match="kind"):
        LatentDistribution("beta", 1.0, 2.0)


def test_cohort_spec_validation():
    with pytest.raises(ValueError, match="noise"):
        CohortSpec(10, 2, LatentDistribution.uniform(4, 7), NoiseProfile((1.0,), (1, 10)))
    with pytest.raises(ValueError, match="clip_mode"):
        small_spec(clip_mode="wrap")
    with pytest.raises(ValueError, match="latent"):
        CohortSpec(10, 1, LatentDistribution.uniform(0.0, 7.0), NoiseProfile((1.0,), (1, 10)))
    with pytest.raises(ValueError, match="latent"):
        CohortSpec(10, 1, LatentDistribution.gaussian(11.0, 1.0), NoiseProfile((1.0,), (1, 10)))
    # the cohort-spec example from the README
    readme = {
        "n_papers": 5000, "m_reviewers": 3,
        "latent": {"kind": "uniform", "lo": 4.0, "hi": 7.0},
        "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
        "clip_mode": "clip", "seed": 20260819,
    }
    assert config.parse(config.COHORT, readme) == config.load(None, "simulate.margins")[0]["spec"]
    del readme["clip_mode"], readme["seed"]
    assert config.parse(config.COHORT, readme) == small_spec(n=5000, seed=0)


# ---------------------------------------------------------------- cohorts


def test_generate_cohort_deterministic():
    a = generate_cohort(small_spec(seed=7))
    b = generate_cohort(small_spec(seed=7))
    np.testing.assert_array_equal(a.latent, b.latent)
    np.testing.assert_array_equal(a.scores, b.scores)
    c = generate_cohort(small_spec(seed=8))
    assert not np.array_equal(a.scores, c.scores)


def test_latents_shared_across_panel_sizes():
    wide = generate_cohort(small_spec(m=3, seed=7))
    narrow = generate_cohort(small_spec(m=1, seed=7))
    np.testing.assert_array_equal(wide.latent, narrow.latent)


def test_cohort_shapes_and_clipping():
    cohort = generate_cohort(small_spec(m=2, sigma=9.0, n=300))
    assert cohort.latent.shape == (300,)
    assert cohort.scores.shape == (300, 2)
    assert cohort.scores.min() >= 1.0 and cohort.scores.max() <= 10.0
    free = generate_cohort(small_spec(m=2, sigma=9.0, n=300, clip_mode="none"))
    assert free.scores.min() < 1.0 or free.scores.max() > 10.0


def test_gaussian_latents_clipped_into_range():
    spec = CohortSpec(
        n_papers=500,
        m_reviewers=1,
        latent=LatentDistribution.gaussian(9.5, 3.0),
        noise=NoiseProfile((1.0,), (1.0, 10.0)),
        seed=3,
    )
    cohort = generate_cohort(spec)
    assert cohort.latent.min() >= 1.0 and cohort.latent.max() <= 10.0
    assert (cohort.latent == 10.0).any()


def test_reject_resample_stays_in_bounds():
    spec = small_spec(m=2, sigma=9.0, n=300, clip_mode="reject-resample")
    cohort = generate_cohort(spec)
    assert cohort.scores.min() >= 1.0 and cohort.scores.max() <= 10.0
    clipped = generate_cohort(small_spec(m=2, sigma=9.0, n=300, clip_mode="clip"))
    assert not np.array_equal(cohort.scores, clipped.scores)
    # resampled scores should not pile up on the boundary the way clipping does
    assert (cohort.scores == 10.0).sum() < (clipped.scores == 10.0).sum()


def test_reject_resample_gives_up_when_infeasible():
    spec = CohortSpec(
        n_papers=5,
        m_reviewers=1,
        latent=LatentDistribution.uniform(1.0, 1.00005),
        noise=NoiseProfile((10000.0,), (1.0, 1.0001)),
        clip_mode="reject-resample",
        seed=1,
    )
    with pytest.raises(ValueError, match="did not converge"):
        generate_cohort(spec)


def test_steep_link_gives_exact_probabilities_without_warnings():
    # a slope of 1e308 overflows the logistic's exponent; RuntimeWarnings fail tests
    settings = PopulationSettings(small_spec(n=300), link_midpoint=5.5, link_slope=1e308)
    pop = synthetic_calibration_population(settings)
    latent = generate_cohort(settings.cohort).latent
    np.testing.assert_array_equal(pop.accepts, latent > 5.5)


def test_slice_cohort():
    cohort = generate_cohort(small_spec(m=3, seed=7))
    sub = slice_cohort(cohort, 2)
    assert sub.spec.m_reviewers == 2
    assert sub.scores.shape == (400, 2)
    np.testing.assert_array_equal(sub.scores, cohort.scores[:, :2])
    np.testing.assert_array_equal(sub.latent, cohort.latent)
    with pytest.raises(ValueError, match="m"):
        slice_cohort(cohort, 4)


@pytest.mark.parametrize(("field", "message"), [
    ("n_papers", "n_papers: must be an integer >= 1, got True"),
    ("m_reviewers", "m_reviewers: must be an integer >= 1, got True"),
    ("seed", "seed: must be an integer >= 0, got True"),
], ids=["n_papers", "m_reviewers", "seed"])
def test_cohort_spec_takes_no_bool_as_an_integer(field, message):
    # True == 1, so every other check of a one-reviewer spec passes
    fields = dict(n_papers=4, m_reviewers=1, latent=LatentDistribution.uniform(4.0, 7.0),
                  noise=NoiseProfile((1.0,), (1.0, 10.0)), seed=0)
    with pytest.raises(ValueError) as info:
        CohortSpec(**{**fields, field: True})
    assert str(info.value) == message


def test_slice_cohort_takes_no_bool_as_a_panel_size():
    cohort = generate_cohort(small_spec(m=3, seed=7))
    with pytest.raises(ValueError) as info:
        slice_cohort(cohort, True)
    assert str(info.value) == "m: must be an integer in [1, 3], got True"


# ---------------------------------------------------------------- margins


def test_margin_experiment_hand_check():
    spec = CohortSpec(
        n_papers=4,
        m_reviewers=1,
        latent=LatentDistribution.uniform(1.0, 9.0),
        noise=NoiseProfile((1.0,), (1.0, 10.0)),
        seed=0,
    )
    cohort = Cohort(
        latent=np.array([4.0, 6.0, 5.4, 5.6]),
        scores=np.array([[6.0], [4.0], [5.6], [5.8]]),
        spec=spec,
    )
    weights = ReviewerWeights.uniform(1)
    rows = margin_experiment(cohort, weights, 5.5, (0.0, 0.25, 0.5, 2.0))
    assert [r.count for r in rows] == [2, 0, 2]
    # bin 0 holds the two near-threshold papers; one decision flips
    assert rows[0].empirical == 0.5
    assert rows[0].stderr == pytest.approx(math.sqrt(0.25 / 2))
    assert rows[1].empirical is None and rows[1].stderr is None
    # bin 2 holds margins 0.5 and 1.5; both decisions flip
    assert rows[2].empirical == 1.0 and rows[2].stderr == 0.0
    inputs = scalar_bound_inputs(weights, spec.noise)
    for row in rows:
        assert row.bound == margin_misclassification_bound(row.gamma_mid, inputs)
        assert row.m == 1


def test_margin_experiment_excludes_out_of_range():
    spec = CohortSpec(
        n_papers=2,
        m_reviewers=1,
        latent=LatentDistribution.uniform(1.0, 9.0),
        noise=NoiseProfile((1.0,), (1.0, 10.0)),
        seed=0,
    )
    cohort = Cohort(
        latent=np.array([5.6, 9.0]),
        scores=np.array([[5.6], [9.0]]),
        spec=spec,
    )
    rows = margin_experiment(cohort, ReviewerWeights.uniform(1), 5.5, (0.0, 1.0))
    assert rows[0].count == 1  # the 3.5 margin falls outside the binning range
    with pytest.raises(ValueError, match="first edge"):
        margin_experiment(cohort, ReviewerWeights.uniform(1), 5.5, (-1.0, 1.0))


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_margin_experiment_rejects_non_finite_edges(value, position):
    # named before the order and sign checks, never as the bound's gamma
    cohort = generate_cohort(small_spec(m=2, n=50))
    edges = [0.0, 1.0, 2.0]
    edges[position] = value
    with pytest.raises(ValueError, match=rf"^bin_edges\[{position}\]: must be finite, got {value}$"):
        margin_experiment(cohort, ReviewerWeights.uniform(2), 5.0, edges)


def test_margin_suite_structure():
    spec = small_spec(m=3, seed=7)
    edges = (0.0, 0.5, 1.0, 1.5)
    rows = margin_suite(spec, (1, 3), 5.5, edges)
    assert len(rows) == 2 * 3
    assert sorted({r.m for r in rows}) == [1, 3]
    by_m = {m: [r for r in rows if r.m == m] for m in (1, 3)}
    # panels are nested, so both sizes see the same papers per bin
    assert [r.count for r in by_m[1]] == [r.count for r in by_m[3]]
    with pytest.raises(ValueError, match="m_grid"):
        margin_suite(spec, (1, 2), 5.5, edges)


# ---------------------------------------------------------------- population


def test_synthetic_population_deterministic_and_labeled():
    settings = config.parse(
        config.POPULATION,
        {
            "size": 500,
            "m_reviewers": 3,
            "latent": {"kind": "uniform", "lo": 2.0, "hi": 9.0},
            "noise": {"per_reviewer_variance": [1.0, 1.0, 1.0], "scalar_bounds": [1.0, 10.0]},
            "link_midpoint": 5.5,
            "link_slope": 2.0,
            "seed": 21,
        }
    )
    assert settings == PopulationSettings(
        CohortSpec(
            500, 3, LatentDistribution.uniform(2.0, 9.0), NoiseProfile((1.0,) * 3, (1.0, 10.0)),
            seed=21,
        ),
        link_midpoint=5.5,
        link_slope=2.0,
    )
    pop = synthetic_calibration_population(settings)
    # the two columns the bootstrap reads, and no ids or statuses
    assert isinstance(pop, Population)
    assert [field.name for field in fields(pop)] == ["scores", "accepts"]
    assert len(pop) == 500 and pop.scores.shape == pop.accepts.shape == (500,)
    again = synthetic_calibration_population(settings)
    np.testing.assert_array_equal(pop.scores, again.scores)
    np.testing.assert_array_equal(pop.accepts, again.accepts)
    assert pop.accepts.dtype == bool
    records = [CalibrationRecord(f"p{i}", s, a, "accept" if a else "reject")
               for i, (s, a) in enumerate(zip(pop.scores.tolist(), pop.accepts.tolist()))]
    assert threshold_bootstrap(pop, (50, 100), 5, seed=1) == threshold_bootstrap(records, (50, 100), 5, seed=1)
    assert np.mean(pop.accepts[pop.scores >= 7.0]) > 0.8 > 0.2 > np.mean(
        pop.accepts[pop.scores <= 4.0]
    )
    with pytest.raises(ValueError, match="size"):
        PopulationSettings(small_spec(n=1), 5.5, 2.0)


# ---------------------------------------------------------------- bootstrap


def make_population(n=400, seed=2):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0.0, 10.0, n)
    prob = 1.0 / (1.0 + np.exp(-(scores - 5.0)))
    accepts = rng.uniform(size=n) < prob
    return [
        CalibrationRecord(f"s{i:04d}", float(s), bool(a), "accept" if a else "reject")
        for i, (s, a) in enumerate(zip(scores, accepts))
    ]


def test_threshold_bootstrap_rows():
    pop = make_population()
    rows = threshold_bootstrap(pop, (20, 40, 80), replicates=30, seed=4)
    assert [r.n_cal for r in rows] == [20, 40, 80]
    for row in rows:
        assert row.mean_abs_err >= 0.0
        assert row.stderr >= 0.0
        assert row.failures >= 0
    again = threshold_bootstrap(pop, (20, 40, 80), replicates=30, seed=4)
    assert rows == again
    other = threshold_bootstrap(pop, (20, 40, 80), replicates=30, seed=5)
    assert rows != other


def reference_bootstrap(scores, accepts, n_cal_grid, replicates, seed):
    """The bootstrap one replicate at a time, each fitted by the suffix-sum reference."""
    tau_true = reference.tau05_from_scores(scores, accepts)
    rng = np.random.default_rng(seed)
    rows = []
    for n in n_cal_grid:
        errors = []
        failures = 0
        for _ in range(replicates):
            pick = rng.choice(scores.size, size=n, replace=False)
            try:
                tau_hat = reference.tau05_from_scores(scores[pick], accepts[pick])
            except ThresholdUnreachableError:
                failures += 1
                continue
            errors.append(abs(tau_hat - tau_true))
        if not errors:
            raise ThresholdUnreachableError(f"n_cal={n}: every replicate failed to reach 1/2")
        mean = float(np.mean(errors))
        stderr = float(np.std(errors, ddof=1) / math.sqrt(len(errors))) if len(errors) > 1 else 0.0
        rows.append(ThresholdErrorRow(n_cal=n, mean_abs_err=mean, stderr=stderr, failures=failures))
    return rows


def test_threshold_bootstrap_matches_reference_for_records_and_table(monkeypatch):
    pop = make_population(n=300)
    table = CalibrationTable.from_records(pop)
    # 7 replicates in blocks of 2 or 1 picked rows: every n ends on a partial block
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 50)
    want = reference_bootstrap(table.scores, table.accepts, (2, 20, 30), 7, seed=3)
    assert want[0].failures > 0  # n = 2 often never reaches 1/2
    assert threshold_bootstrap(pop, (2, 20, 30), 7, seed=3) == want
    assert threshold_bootstrap(table, (2, 20, 30), 7, seed=3) == want


def test_threshold_bootstrap_fits_the_truth_through_calibrate(monkeypatch):
    # the population is ranked by ``calibrate.TailCounts`` and the kernel is looked up on
    # ``calibrate`` at call time, so wrappers installed after ``simulate`` was imported see both
    calls, shapes = [], []
    rank, kernel = calibrate.TailCounts.of, calibrate._tau05_ranks
    monkeypatch.setattr(calibrate.TailCounts, "of",
                        classmethod(lambda cls, *args: calls.append(1) or rank(*args)))
    monkeypatch.setattr(calibrate, "_tau05_ranks",
                        lambda keys: shapes.append(keys.shape) or kernel(keys))
    threshold_bootstrap(make_population(n=300), (20,), 2, seed=3)
    # one ranking of the population gives its tau_05 and the replicates' keys
    assert calls == [1]
    # one kernel: one row for the population, then one block of both replicates
    assert shapes == [(1, 300), (2, 20)]


def test_threshold_bootstrap_partial_default_block():
    table = CalibrationTable.from_records(make_population(n=2500))
    n = 2000
    per_block = simulate._BLOCK_ELEMENTS // n
    replicates = per_block + 3
    want = reference_bootstrap(table.scores, table.accepts, (n,), replicates, seed=8)
    assert threshold_bootstrap(table, (n,), replicates, seed=8) == want


@st.composite
def packed_rows(draw):
    """(scores, accepts) of a few equal-length rows on a small integer grid."""
    n = draw(st.integers(2, 10))
    scores, accepts = [], []
    for _ in range(draw(st.integers(1, 6))):
        scores.append(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        kind = draw(st.sampled_from(("mixed", "all-accept", "all-reject")))
        if kind == "mixed":
            accepts.append(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        else:
            accepts.append([kind == "all-accept"] * n)
    return np.array(scores, dtype=float), np.array(accepts, dtype=bool)


@settings(max_examples=max(200, settings.default.max_examples))
@given(packed_rows())
@example((np.array([[1.0, 2.0], [3.0, 3.0], [0.0, 4.0]]),
          np.array([[False, True], [True, True], [False, False]])))
def test_level_set_kernel_matches_tau05_per_row(rows):
    scores, accepts = rows
    uniq, rank = np.unique(scores, return_inverse=True)
    keys = (rank.reshape(scores.shape).astype(np.int64) << 1) | accepts
    got = calibrate._tau05_ranks(keys)
    # TailCounts packs fewer than 2^30 distinct scores in 32 bits: the width changes no rank
    np.testing.assert_array_equal(calibrate._tau05_ranks(keys.astype(np.int32)), got)
    for i in range(len(scores)):
        try:
            want = reference.tau05_from_scores(scores[i], accepts[i])
        except ThresholdUnreachableError:
            assert got[i] == -1
        else:
            assert got[i] >= 0 and uniq[got[i]] == want


def reference_ranks(keys):
    """Each row's tau_05 as a rank, or -1, from ``reference.tau05_from_scores``, which sums in int64."""
    ranks = []
    for row in keys.astype(np.int64):
        try:
            ranks.append(int(reference.tau05_from_scores(row >> 1, row & 1)))
        except ThresholdUnreachableError:
            ranks.append(-1)
    return ranks


@pytest.mark.parametrize("n", [65_535, 65_536], ids=["int32-sums", "int64-sums"])
@pytest.mark.parametrize("width", [np.int32, np.int64])
def test_level_set_kernel_at_the_accumulator_switch(n, width):
    # an all-reject row of n distinct ranks has the largest level a row of n can reach, n(n+1)/2:
    # 2,147,450,880 at n = 65,535, the most that int32 sums hold; at n = 65,536 it would wrap
    # negative and the row would return rank 0.  The second row accepts its top third.
    ranks = np.arange(n, dtype=width)
    keys = np.stack([ranks << 1, (ranks << 1) | (ranks >= 2 * n // 3)])
    got = calibrate._tau05_ranks(keys).tolist()
    assert got == reference_ranks(keys)
    assert got[0] == -1 and got[1] > 0


def test_threshold_bootstrap_validation():
    pop = make_population(n=50)
    with pytest.raises(ValueError, match="n_cal_grid"):
        threshold_bootstrap(pop, (40, 40), replicates=10, seed=1)
    with pytest.raises(ValueError, match="n_cal_grid"):
        threshold_bootstrap(pop, (40, 60), replicates=10, seed=1)
    with pytest.raises(ValueError, match="replicates"):
        threshold_bootstrap(pop, (10, 20), replicates=1, seed=1)


@pytest.mark.parametrize("grid", [(20.7,), (20, 30.0), (True, 20), ()], ids=["float", "float-last", "bool", "empty"])
def test_threshold_bootstrap_takes_integer_sizes_only(grid):
    # a float size once ran truncated: (20.7,) as n_cal=20
    message = f"n_cal_grid: calibration sizes must be strictly increasing integers in [2, 50], got {list(grid)}"
    with pytest.raises(ValueError) as info:
        threshold_bootstrap(make_population(n=50), grid, replicates=10, seed=1)
    assert str(info.value) == message


# ---------------------------------------------------------------- variance


def test_variance_experiment_scaling():
    spec = small_spec(m=4, sigma=1.0, n=4000, clip_mode="none")
    rows = variance_experiment(spec, (1, 2, 4))
    assert [r.m for r in rows] == [1, 2, 4]
    for row in rows:
        assert row.proxy == 81.0 / row.m
        assert row.var_empirical == pytest.approx(1.0 / row.m, rel=0.1)
    with pytest.raises(ValueError, match="equal per-reviewer variances"):
        heterogeneous = CohortSpec(
            n_papers=100,
            m_reviewers=2,
            latent=LatentDistribution.uniform(4.0, 7.0),
            noise=NoiseProfile((1.0, 2.0), (1.0, 10.0)),
        )
        variance_experiment(heterogeneous, (1, 2))
    with pytest.raises(ValueError, match="m_grid"):
        variance_experiment(spec, (1, 2))
    with pytest.raises(ValueError, match="n_papers: a variance needs at least 2 papers, got 1"):
        variance_experiment(small_spec(n=1), (1, 2, 3))


@pytest.mark.parametrize("m_grid", [(0, 3), (-2, 3), (1.5, 3), (True, 3), ()],
                         ids=["zero", "negative", "float", "bool", "empty"])
@pytest.mark.parametrize("experiment", ["variance", "margins"])
def test_experiments_take_panel_sizes_of_at_least_1(experiment, m_grid):
    # once (0, 3) divided by zero, (-2, 3) gave a row with m=-2 and (1.5, 3) ran as m=1
    spec = small_spec(m=3, n=50)
    with pytest.raises(ValueError) as info:
        if experiment == "variance":
            variance_experiment(spec, m_grid)
        else:
            margin_suite(spec, m_grid, 5.5, (0.0, 1.0))
    assert str(info.value) == f"m_grid: panel sizes must be integers >= 1, got {list(m_grid)}"


# ---------------------------------------------------------------- checks


def bin_row(m, lo, hi, empirical, stderr, bound, count=100):
    return MarginBinRow(lo, hi, 0.5 * (lo + hi), empirical, stderr, bound, count, m)


def test_check_margin_dominance():
    good = [bin_row(1, 0.0, 0.5, 0.10, 0.01, 0.2)]
    assert check_margin_dominance(good) == []
    slack = [bin_row(1, 0.0, 0.5, 0.21, 0.01, 0.2)]
    assert check_margin_dominance(slack) == []  # inside 3 stderr
    bad = [bin_row(1, 0.0, 0.5, 0.30, 0.01, 0.2)]
    assert len(check_margin_dominance(bad)) == 1
    empty = [bin_row(1, 0.0, 0.5, None, None, 0.2, count=0)]
    assert check_margin_dominance(empty) == []


def test_check_margin_ordering():
    rows = [
        bin_row(1, 0.0, 0.5, 0.30, 0.01, 0.9),
        bin_row(3, 0.0, 0.5, 0.10, 0.01, 0.5),
    ]
    assert check_margin_ordering(rows) == []
    flipped = [
        bin_row(1, 0.0, 0.5, 0.10, 0.01, 0.9),
        bin_row(3, 0.0, 0.5, 0.30, 0.01, 0.5),
    ]
    assert len(check_margin_ordering(flipped)) == 1
    thin = [
        bin_row(1, 0.0, 0.5, 0.10, 0.01, 0.9, count=10),
        bin_row(3, 0.0, 0.5, 0.30, 0.01, 0.5, count=10),
    ]
    assert check_margin_ordering(thin) == []  # under the count floor


def test_error_curve_slope_exact_power_law():
    rows = [
        ThresholdErrorRow(n, 2.0 * n**-0.5, 0.01, 0) for n in (50, 100, 200, 400)
    ]
    assert error_curve_slope(rows) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError, match="rows"):
        error_curve_slope(rows[:1])


def test_check_threshold_rows():
    good = [ThresholdErrorRow(n, 2.0 * n**-0.5, 0.01, 0) for n in (50, 100, 200, 400)]
    assert check_threshold_rows(good) == []
    shallow = [ThresholdErrorRow(n, 2.0 * n**-0.2, 0.01, 0) for n in (50, 100, 200, 400)]
    assert any("slope" in f for f in check_threshold_rows(shallow))
    bumpy = [
        ThresholdErrorRow(50, 0.30, 0.001, 0),
        ThresholdErrorRow(100, 0.35, 0.001, 0),  # inversion beyond stderr slack
        ThresholdErrorRow(200, 0.15, 0.001, 0),
        ThresholdErrorRow(400, 0.10, 0.001, 0),
    ]
    assert any("rose past" in f for f in check_threshold_rows(bumpy))
    follows = [
        ThresholdErrorRow(50, 0.300, 0.02, 0),
        ThresholdErrorRow(100, 0.305, 0.02, 0),  # inversion inside the slack
        ThresholdErrorRow(200, 0.150, 0.02, 0),
        ThresholdErrorRow(400, 0.104, 0.02, 0),
    ]
    assert not any("rose past" in f for f in check_threshold_rows(follows))


def test_a_zero_mean_error_fails_in_place_of_the_slope():
    # n_cal equal to the population's size draws the whole population every time: its error is 0,
    # whose log would be -inf (and a RuntimeWarning, which fails tests here)
    rows = [ThresholdErrorRow(50, 0.3, 0.01, 0), ThresholdErrorRow(20000, 0.0, 0.0, 0)]
    assert math.isnan(error_curve_slope(rows))
    assert check_threshold_rows(rows) == [
        "n_cal=20000: mean error 0 has no logarithm, so the log-log slope is undefined"]


def test_check_variance_rows():
    good = [VarianceRow(1, 1.0, 81.0), VarianceRow(3, 0.34, 27.0)]
    assert check_variance_rows(good) == []
    off_ratio = [VarianceRow(1, 1.0, 81.0), VarianceRow(3, 0.2, 27.0)]
    assert any("ratio" in f for f in check_variance_rows(off_ratio))
    bad_proxy = [VarianceRow(1, 1.0, 81.0), VarianceRow(3, 0.34, 26.0)]
    assert any("proxy" in f for f in check_variance_rows(bad_proxy))
    missing = [VarianceRow(2, 0.5, 40.5)]
    assert check_variance_rows(missing) == ["rows must include m=1 and m=3"]
    # the default window follows the m range: ratio ~4 is fine for m 1 vs 4
    scaled = [VarianceRow(1, 1.0, 81.0), VarianceRow(4, 0.26, 20.25)]
    assert check_variance_rows(scaled, m_low=1, m_high=4) == []
    too_flat = [VarianceRow(1, 1.0, 81.0), VarianceRow(4, 0.5, 20.25)]
    assert any("ratio" in f for f in check_variance_rows(too_flat, m_low=1, m_high=4))
    # an explicit window still wins
    assert any("ratio" in f for f in check_variance_rows(scaled, 1, 4, window=(2.5, 3.5)))


# ---------------------------------------------------------------- presets


def test_default_settings_are_consistent():
    margins, bootstrap, variance = config.load(
        None, "simulate.margins", "simulate.threshold_error", "simulate.variance"
    )
    spec, m_grid, threshold, edges = margins.values()
    assert max(m_grid) == spec.m_reviewers
    assert len(edges) >= 2 and edges[0] >= 0.0
    assert spec.noise.scalar_bounds[0] <= threshold <= spec.noise.scalar_bounds[1]

    pop, grid, replicates, seed = bootstrap.values()
    assert pop.cohort.n_papers >= 2
    assert all(2 <= n <= pop.cohort.n_papers for n in grid)
    assert replicates >= 2

    var_spec, var_grid = variance.values()
    assert max(var_grid) == var_spec.m_reviewers
    assert len(set(var_spec.noise.per_reviewer_variance)) == 1
