import math
import time

import numpy as np
import pytest

import l1cube
from l1cube import (
    DEFAULT_DIMS,
    DEFAULT_NUM_PAIRS,
    ExperimentConfig,
    MomentSummary,
    SampleSpec,
    compare_to_theory,
    derive_seed,
    dump_report_json,
    ks_critical_value,
    run_experiment,
    sample_distances,
    summarize,
)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.dims == (1, 2, 3, 5, 10, 20, 50, 100)
        assert cfg.dims == DEFAULT_DIMS
        assert cfg.num_pairs == DEFAULT_NUM_PAIRS == 10000
        assert cfg.seed == 0
        assert cfg.bins == 30
        assert not cfg.emit_histograms
        assert not cfg.emit_gof

    def test_largest_sampled_dim(self):
        # 2^55 is the sampler's ceiling (SampleSpec's too); it is not sampled here.
        assert ExperimentConfig(dims=(3, 2**55)).dims == (3, 2**55)
        with pytest.raises(ValueError, match=rf"^dims\[1\] must be <= {2**55}, got {2**55 + 1}$"):
            ExperimentConfig(dims=(3, 2**55 + 1))

    def test_dims_coerced_to_int_tuple(self):
        cfg = ExperimentConfig(dims=np.array([2, 4], dtype=np.int64))
        assert cfg.dims == (2, 4)
        assert all(type(d) is int for d in cfg.dims)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dims=()),
            dict(dims=(1, 0)),
            dict(dims=(-2,)),
            dict(num_pairs=1),
            dict(bins=0),
            dict(seed=-1),
            dict(seed=2**64),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(dims=(2.7,)), r"dims\[0\] must be an integer, got 2.7"),
            (dict(dims=(1, 2.0)), r"dims\[1\] must be an integer, got 2.0"),
            (dict(num_pairs=100.5), "num_pairs must be an integer, got 100.5"),
            (dict(num_pairs="100"), "num_pairs must be an integer, got '100'"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(bins=2.5), "bins must be an integer, got 2.5"),
            (dict(dims=5), "dims must be a sequence of integers, got 5"),
            (dict(dims=(True, 2)), r"dims\[0\] must be an integer, got True"),
            (dict(bins=True), "bins must be an integer, got True"),
        ],
        ids=["dim-2.7", "dim-2.0", "num_pairs-100.5", "num_pairs-str", "seed-1.5", "bins-2.5",
             "dims-int", "dim-bool", "bins-bool"],
    )
    def test_rejects_non_integers(self, kwargs, message):
        # A float dim used to be truncated (2.7 ran dim 2); float counts
        # passed the range checks and failed later with TypeError. A bool
        # ran as 0 or 1 (dims (True, 2) ran dims 1 and 2).
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(emit_gof=1), "emit_gof must be a bool, got 1"),
            (dict(emit_gof="no"), "emit_gof must be a bool, got 'no'"),
            (dict(emit_histograms=None), "emit_histograms must be a bool, got None"),
            (dict(emit_histograms=1.0), "emit_histograms must be a bool, got 1.0"),
        ],
        ids=["gof-1", "gof-str", "histograms-None", "histograms-1.0"],
    )
    def test_rejects_non_bools(self, kwargs, message):
        # 1 used to be written into report.json as 1, and "no" turned GOF on.
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)

    def test_numpy_bools_stored_as_bool(self):
        cfg = ExperimentConfig(
            dims=(2,), num_pairs=100, emit_gof=np.bool_(True), emit_histograms=np.bool_(False)
        )
        assert (cfg.emit_gof, cfg.emit_histograms) == (True, False)
        assert type(cfg.emit_gof) is bool and type(cfg.emit_histograms) is bool
        # A numpy bool used to reach json.dumps and fail after the whole sweep.
        assert '"emit_gof": true' in dump_report_json(run_experiment(cfg))

    def test_numpy_integers_stored_as_int(self):
        cfg = ExperimentConfig(
            dims=(np.int32(3),), num_pairs=np.int64(500), seed=np.uint64(2**63), bins=np.int16(7)
        )
        values = (*cfg.dims, cfg.num_pairs, cfg.seed, cfg.bins)
        assert values == (3, 500, 2**63, 7)
        assert all(type(v) is int for v in values)
        plain = ExperimentConfig(dims=(3,), num_pairs=500, seed=2**63, bins=7)
        assert dump_report_json(run_experiment(cfg)) == dump_report_json(run_experiment(plain))

    def test_duplicate_dims_rejected(self):
        # Repeated dims would repeat a row and overwrite its figure files.
        with pytest.raises(ValueError, match="5 more than once"):
            ExperimentConfig(dims=(2, 5, 3, 5))

    def test_distinct_dims_validate_in_linear_time(self):
        # The duplicate check once compared each dim with every earlier one:
        # 7.7 s at 30,000 dims. A seen-set scan takes milliseconds.
        dims = tuple(range(1, 30_001))
        start = time.perf_counter()
        assert ExperimentConfig(dims=dims).dims == dims
        assert time.perf_counter() - start < 1.0


class TestCompareToTheory:
    def test_reference_ten_dim_row(self):
        # Mean 3.328307349247761 and variance 0.5597311783409015 for n=10 at
        # N=10^4: the mean sits 0.674 standard errors below 10/3 and the
        # variance 0.75% above 10/18 (both well inside ordinary Monte Carlo
        # noise). Reference values recomputed independently by hand.
        summary = MomentSummary(
            10_000, 3.328307349247761, 0.5597311783409015 * 10_000
        )
        mean_dev_se, var_dev_rel = compare_to_theory(summary, 10)
        assert mean_dev_se == pytest.approx(-0.6743065241503233, abs=1e-9)
        assert var_dev_rel == pytest.approx(0.0075161210136226, abs=1e-9)
        assert abs(mean_dev_se) < 4

    def test_zero_deviation(self):
        summary = MomentSummary(100, 2.0, (6 / 18) * 100)
        mean_dev_se, var_dev_rel = compare_to_theory(summary, 6)
        assert mean_dev_se == pytest.approx(0.0, abs=1e-12)
        assert var_dev_rel == pytest.approx(0.0, abs=1e-12)

    def test_one_se_offset(self):
        se = math.sqrt((3 / 18) / 400)
        summary = MomentSummary(400, 1.0 + se, (3 / 18) * 400)
        mean_dev_se, _ = compare_to_theory(summary, 3)
        assert mean_dev_se == pytest.approx(1.0, abs=1e-12)

    def test_reference_three_dim_row(self):
        # Mean 0.99920 and variance 0.16573 for n=3 at N=10^4 sit well
        # inside the 4-SE and 5% acceptance bands.
        summary = MomentSummary(10_000, 0.99920, 0.16573 * 10_000)
        mean_dev_se, var_dev_rel = compare_to_theory(summary, 3)
        assert abs(mean_dev_se) < 4
        assert abs(var_dev_rel) < 0.05

    def test_flags_anomalous_run(self):
        # A dim-1 mean of 0.31435 over 10^4 pairs sits about eight standard
        # errors below 1/3: far outside anything sampling noise produces, so
        # the deviation column must make it unmistakable.
        summary = MomentSummary(10_000, 0.31435, 0.05439 * 10_000)
        mean_dev_se, _ = compare_to_theory(summary, 1)
        assert mean_dev_se == pytest.approx(-8.05, abs=0.01)
        assert abs(mean_dev_se) > 4

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compare_to_theory(MomentSummary.empty(), 3)


class TestRunExperiment:
    def test_row_shape_and_theory_columns(self):
        rep = run_experiment(ExperimentConfig(dims=(2, 7), num_pairs=500, seed=1))
        assert [r.dim for r in rep.rows] == [2, 7]
        assert rep.rows[0].theoretical_mean == 2 / 3
        assert rep.rows[1].theoretical_variance == 7 / 18
        assert rep.version == l1cube.__version__
        assert rep.variance_convention == "population"

    def test_deterministic(self):
        cfg = ExperimentConfig(
            dims=(1, 5), num_pairs=800, seed=9, emit_histograms=True, emit_gof=True
        )
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_rows_keyed_by_dimension_value(self):
        # A row depends only on (seed, dim, num_pairs), never on where the
        # dim sits in the list, so sweeps can be extended without
        # changing existing rows.
        alone = run_experiment(ExperimentConfig(dims=(5,), num_pairs=600, seed=3))
        swept = run_experiment(ExperimentConfig(dims=(100, 5, 2), num_pairs=600, seed=3))
        assert swept.rows[1] == alone.rows[0]

    def test_row_stats_match_direct_sampling(self):
        cfg = ExperimentConfig(dims=(4,), num_pairs=700, seed=8)
        row = run_experiment(cfg).rows[0]
        x = sample_distances(SampleSpec(dim=4, num_pairs=700, seed=derive_seed(8, 4)))
        s = summarize(x)
        assert row.empirical_mean == s.mean
        assert row.empirical_variance == s.variance_population

    def test_deviation_columns_are_consistent(self):
        row = run_experiment(ExperimentConfig(dims=(3,), num_pairs=1000, seed=2)).rows[0]
        se = math.sqrt(row.theoretical_variance / 1000)
        assert row.mean_dev_se == pytest.approx(
            (row.empirical_mean - row.theoretical_mean) / se, rel=1e-12
        )
        assert row.var_dev_rel == pytest.approx(
            (row.empirical_variance - row.theoretical_variance)
            / row.theoretical_variance,
            rel=1e-12,
        )

    def test_default_sweep_stays_in_band(self):
        rep = run_experiment(ExperimentConfig())
        for row in rep.rows:
            assert abs(row.mean_dev_se) < 6, f"dim {row.dim}"
            assert abs(row.var_dev_rel) < 0.10, f"dim {row.dim}"

    def test_default_sweep_seed_42_stays_in_band(self):
        rep = run_experiment(ExperimentConfig(seed=42))
        for row in rep.rows:
            assert abs(row.mean_dev_se) <= 4, f"dim {row.dim}"
            assert abs(row.var_dev_rel) <= 0.05, f"dim {row.dim}"

    def test_gof_passes_in_most_default_dims(self):
        # With goodness-of-fit on, the KS statistic (against the exact law
        # where the backend supports it, the normal fit above that) stays
        # under the 1% critical value in at least 7 of the 8 default dims.
        rep = run_experiment(ExperimentConfig(emit_gof=True))
        crit = ks_critical_value(DEFAULT_NUM_PAIRS, 0.01)
        passing = 0
        for row in rep.rows:
            stat = row.ks_exact if row.ks_exact is not None else row.ks_normal
            passing += stat <= crit
        assert passing >= 7

    def test_gof_backends(self):
        cfg = ExperimentConfig(dims=(2, 50), num_pairs=2000, seed=5, emit_gof=True)
        low, high = run_experiment(cfg).rows
        assert low.gof_backend == "exact"
        assert low.ks_exact is not None and low.ks_normal is not None
        assert high.gof_backend == "normal_only"
        assert high.ks_exact is None and high.ks_normal is not None
        for row in (low, high):
            assert row.ks_crit_005 == pytest.approx(ks_critical_value(2000, 0.05))
            assert row.ks_crit_001 == pytest.approx(ks_critical_value(2000, 0.01))

    def test_gof_off_leaves_columns_empty(self):
        row = run_experiment(ExperimentConfig(dims=(2,), num_pairs=500, seed=5)).rows[0]
        assert row.ks_exact is None
        assert row.ks_normal is None
        assert row.ks_crit_005 is None
        assert row.gof_backend is None

    def test_histogram_emission(self):
        cfg = ExperimentConfig(
            dims=(3,), num_pairs=900, seed=6, bins=12, emit_histograms=True
        )
        row = run_experiment(cfg).rows[0]
        assert row.histogram is not None
        assert row.histogram.density_mode
        assert row.histogram.counts.size == 12
        assert row.histogram.total == 900

    def test_no_histogram_by_default(self):
        row = run_experiment(ExperimentConfig(dims=(3,), num_pairs=500, seed=6)).rows[0]
        assert row.histogram is None
