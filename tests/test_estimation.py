import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from l1cube import (
    EXACT_DENSITY_MAX_DIM,
    EmpiricalCdf,
    Histogram,
    MomentSummary,
    NormalApprox,
    SampleSpec,
    build_histogram,
    derive_seed,
    exact_density,
    ks_critical_value,
    ks_statistic,
    normal_cdf,
    sample_distances,
    summarize,
)
from l1cube import estimation
from closed_form_reference import closed_form_density
from ks_reference import full_ks
from pairwise_reference import span_sum as reference_span_sum


class TestKsCriticalValue:
    def test_known_values(self):
        assert ks_critical_value(100, 0.05) == pytest.approx(0.1358)
        assert ks_critical_value(10_000, 0.01) == pytest.approx(0.01628)

    def test_rejects_other_levels(self):
        with pytest.raises(ValueError, match="significance"):
            ks_critical_value(100, 0.10)
        # Unhashable levels used to leak a TypeError from the table lookup.
        for level in ([0.05], np.array([0.05])):
            with pytest.raises(ValueError, match="unsupported significance"):
                ks_critical_value(10, level)

    @pytest.mark.parametrize(
        "n, message",
        [
            (0, "n must be >= 1, got 0"),
            (-5, "n must be >= 1, got -5"),
            (100.0, "n must be an integer, got 100.0"),
            (True, "n must be an integer, got True"),
        ],
    )
    def test_rejects_bad_sample_sizes(self, n, message):
        # 0 used to raise ZeroDivisionError and -5 a math domain error.
        with pytest.raises(ValueError, match=message):
            ks_critical_value(n, 0.05)


class TestMomentSummary:
    def test_empty(self):
        s = MomentSummary.empty()
        assert s.is_empty
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance_population)

    def test_empty_is_merge_identity(self):
        s = MomentSummary(3, 1.5, 0.5)
        assert MomentSummary.empty().merge(s) == s
        assert s.merge(MomentSummary.empty()) == s

    def test_summarize_empty_input(self):
        # Empty in, empty out: count 0 with NaN statistics, never zeros.
        s = summarize([])
        assert s.is_empty
        assert s.count == 0
        assert math.isnan(s.mean)
        assert math.isnan(s.variance_population)

    @pytest.mark.parametrize(
        "values",
        [
            [0.1, math.nan, 0.3],
            [0.1, math.inf, 0.3],
            [math.inf, -math.inf, 0.3],
            [1e308, 1e308],
            [0.5] * 70_000 + [-math.inf],
        ],
        ids=["nan", "inf", "inf-minus-inf", "overflow", "second-block"],
    )
    def test_rejects_non_finite(self, values):
        # NaN used to give mean=nan, m2=nan; inf a RuntimeWarning.
        with pytest.raises(ValueError, match="must be finite"):
            summarize(values)

    def test_two_point_sample(self):
        s = summarize([0.0, 1.0])
        assert s.mean == 0.5
        assert s.variance_population == 0.25

    def test_constant_sample_has_zero_variance(self):
        s = summarize([2.0, 2.0, 2.0])
        assert s.mean == 2.0
        assert s.variance_population == 0.0

    def test_single_value(self):
        s = summarize([0.7])
        assert s.count == 1
        assert s.mean == 0.7
        assert s.variance_population == 0.0

    def test_matches_numpy(self):
        rng = np.random.default_rng(17)
        x = rng.random(5000) * 3
        s = summarize(x)
        assert s.count == 5000
        assert s.mean == pytest.approx(np.mean(x), rel=1e-13)
        assert s.variance_population == pytest.approx(np.var(x), rel=1e-12)

    def test_blocked_path_matches_numpy(self):
        # More data than one internal block, so the pairwise merge kicks in.
        rng = np.random.default_rng(18)
        x = rng.random(200_000)
        s = summarize(x)
        assert s.mean == pytest.approx(np.mean(x), rel=1e-13)
        assert s.variance_population == pytest.approx(np.var(x), rel=1e-12)

    def test_merge_equals_summary_of_concatenation(self):
        rng = np.random.default_rng(19)
        x = rng.random(3000)
        for cut in (1, 17, 1500, 2999):
            merged = summarize(x[:cut]).merge(summarize(x[cut:]))
            assert merged.count == 3000
            assert merged.mean == pytest.approx(np.mean(x), rel=1e-12)
            assert merged.variance_population == pytest.approx(np.var(x), rel=1e-11)

    def test_merge_is_associative_enough(self):
        rng = np.random.default_rng(20)
        parts = [summarize(rng.random(n)) for n in (10, 400, 3, 77)]
        left = parts[0]
        for p in parts[1:]:
            left = left.merge(p)
        right = parts[0].merge(parts[1].merge(parts[2].merge(parts[3])))
        assert left.count == right.count
        assert left.mean == pytest.approx(right.mean, rel=1e-13)
        assert left.m2 == pytest.approx(right.m2, rel=1e-11)

    def test_mixed_magnitudes_match_two_pass_oracle(self):
        # A million values spanning six orders of magnitude; the streaming
        # summary must track a plain two-pass computation to 1e-10 relative.
        rng = np.random.default_rng(23)
        x = rng.random(1_000_000) * rng.choice([1e-3, 1.0, 1e3], size=1_000_000)
        s = summarize(x)
        mean = x.sum() / x.size
        var = np.sum((x - mean) ** 2) / x.size
        assert s.mean == pytest.approx(mean, rel=1e-10)
        assert s.variance_population == pytest.approx(var, rel=1e-10)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(24)
        x = rng.random(100_000) * 5
        shuffled = rng.permutation(x)
        a, b = summarize(x), summarize(shuffled)
        assert a.count == b.count
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance_population == pytest.approx(b.variance_population, rel=1e-12)


class TestSummationOrder:
    """`summarize` adds in a stated order, so its bits do not follow numpy's.

    The reference is a pure-Python model of numpy's pairwise kernel over
    8192-element spans added left to right, blocked and merged the way
    `summarize` is (blocks of 1 << 16 values). Equality is exact: a failure
    here means numpy's kernel or the program's order changed.
    """

    @staticmethod
    def reference(values: list) -> MomentSummary:
        total = MomentSummary.empty()
        for start in range(0, len(values), 1 << 16):
            block = values[start : start + (1 << 16)]
            mean = reference_span_sum(block) / len(block)
            m2 = reference_span_sum([(v - mean) * (v - mean) for v in block])
            total = total.merge(MomentSummary(len(block), mean, m2))
        return total

    @pytest.mark.parametrize("n", [1, 7, 8, 129, 8191, 8192, 8193, 10000, 65537])
    def test_matches_reference_exactly(self, n):
        # Six orders of magnitude, so a different order changes low bits.
        rng = np.random.default_rng(n)
        x = rng.random(n) * rng.choice([1e-3, 1.0, 1e3], size=n)
        got, want = summarize(x), self.reference(x.tolist())
        assert got.count == want.count == n
        assert got.mean == want.mean
        assert got.m2 == want.m2

    def test_deviations_held_a_span_at_a_time(self):
        # Two blocks of 65,536 values. The squared deviations are formed one
        # 8,192-value span (64 KiB) at a time: the peak reads 129 KiB, as a
        # span's deviations are freed when the next span's are made. Squared
        # over the whole block, they held one 512 KiB temporary (514 KiB).
        x = np.random.default_rng(17).random(1 << 17)
        tracemalloc.start()
        try:
            summarize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 << 10


class TestHistogram:
    def test_matches_numpy_semantics(self):
        rng = np.random.default_rng(21)
        x = rng.random(4000) * 2
        h = build_histogram(x, bins=30)
        counts, edges = np.histogram(x, bins=30)
        assert np.array_equal(h.counts, counts)
        assert np.array_equal(h.bin_edges, edges)
        assert h.total == 4000

    def test_adversarial_samples_match_numpy(self):
        # Ties, constant samples, scales from 1e-8 to 1e8 and 1-199 bins:
        # edges and counts equal np.histogram's bit for bit, sorted or not.
        rng = np.random.default_rng(2027)
        for trial in range(2000):
            n = int(rng.integers(1, 2000))
            scale = 10.0 ** rng.uniform(-8, 8)
            x = [rng.random(n) * scale,
                 np.round(rng.random(n) * 7) / 7 * scale + scale,
                 np.full(n, rng.random() * scale),
                 rng.normal(size=n) * scale - scale][trial % 4]
            bins = int(rng.integers(1, 200))
            counts, edges = np.histogram(x, bins=bins)
            for data in (x, np.sort(x)):
                h = build_histogram(data, bins=bins)
                assert h.bin_edges.tobytes() == edges.tobytes(), (trial, bins)
                assert np.array_equal(h.counts, counts), (trial, bins)

    def test_sorted_sample_counted_in_place(self):
        # At 10^6 sorted points the histogram holds its edges and counts and
        # a 64 KiB block of the sortedness check; np.histogram held 2,242 KiB.
        x = np.sort(np.random.default_rng(3).random(10**6))
        tracemalloc.start()
        try:
            build_histogram(x, bins=30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 << 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="is not finite"):
            build_histogram([0.5, bad, 0.25], bins=3)

    def test_rejects_a_range_wider_than_a_double(self):
        # Both ends are finite but their distance is not: the edge grid used
        # to overflow with a RuntimeWarning before a misleading edges error.
        with pytest.raises(ValueError, match=r"range \[-1.7e\+308, 1.7e\+308\] is not finite"):
            build_histogram([-1.7e308, 1.7e308], bins=4)

    @pytest.mark.parametrize("data, bins, span", [
        ([1e16], 30, r"\[1e\+16, 1e\+16\]"),
        ([2.0**52], 3, r"\[4503599627370495.5, 4503599627370496.0\]"),
        ([1.0, np.nextafter(1.0, 2.0)], 30, r"\[1.0, 1.0000000000000002\]"),
    ], ids=["1e16", "2**52", "one-ulp"])
    def test_rejects_a_range_too_narrow_for_its_bins(self, data, bins, span):
        # The input is valid, but the range holds too few doubles for the
        # edges; widening a one-valued sample by 0.5 moves no end at 1e16.
        with pytest.raises(ValueError, match=f"range {span} cannot be split into {bins} bins"):
            build_histogram(data, bins=bins)

    def test_subnormal_range_still_splits(self):
        h = build_histogram([0.0, 1e-320], bins=30)
        assert np.all(np.diff(h.bin_edges) > 0) and h.bin_edges[-1] == 1e-320
        assert h.total == 2

    @pytest.mark.parametrize("bins", [3, 7, 30])
    def test_widest_finite_range(self, bins):
        # The last edge is hi itself; lo + bins * width / bins used to
        # overflow on its way there.
        top = sys.float_info.max
        h = build_histogram([0.0, top], bins=bins)
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == top
        assert h.counts[0] == h.counts[-1] == 1 and h.total == 2

    def test_counts_partition_the_sample(self):
        # The rightmost bin is closed, so the maximum is counted too.
        x = np.array([0.0, 0.5, 1.0, 1.0])
        h = build_histogram(x, bins=2)
        assert h.total == 4
        assert h.counts[-1] == 3

    def test_three_point_example(self):
        h = build_histogram([0.0, 0.5, 1.0], bins=2)
        assert np.array_equal(h.bin_edges, [0.0, 0.5, 1.0])
        assert np.array_equal(h.counts, [1, 2])

    def test_density_heights_track_exact_bin_averages(self):
        # Each density height should sit within four binomial standard
        # errors of the exact average density over its bin.
        cdf = exact_density(1).cdf
        x = sample_distances(SampleSpec(dim=1, num_pairs=100_000, seed=5))
        h = build_histogram(x, bins=30, density_mode=True)
        n = h.total
        for left, right, height in zip(h.bin_edges[:-1], h.bin_edges[1:], h.heights):
            p = float(cdf(right) - cdf(left))
            width = right - left
            band = 4.0 * math.sqrt(p * (1.0 - p) / n) / width
            assert abs(height - p / width) <= band

    def test_density_heights_integrate_to_one(self):
        rng = np.random.default_rng(22)
        h = build_histogram(rng.random(1000) * 5, bins=17, density_mode=True)
        assert float(np.sum(h.heights * h.widths)) == pytest.approx(1.0, abs=1e-12)

    def test_count_heights_are_counts(self):
        h = build_histogram([0.1, 0.2, 0.9], bins=2)
        assert np.array_equal(h.heights, h.counts)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            build_histogram([])
        with pytest.raises(ValueError, match="bins"):
            build_histogram([0.1], bins=0)
        with pytest.raises(ValueError, match="bins must be an integer, got 2.5"):
            build_histogram([1.0, 2.0], bins=2.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(np.array([0.0, 0.0, 1.0]), np.array([1, 1]), False)
        with pytest.raises(ValueError, match="one entry per bin"):
            Histogram(np.array([0.0, 1.0]), np.array([1, 2]), False)

    @pytest.mark.parametrize(
        "edges, counts",
        [([0.0, np.nan, 1.0], [1, 1]), ([0.0, np.inf], [1]), ([-np.inf, 0.0], [1])],
        ids=["nan", "inf", "-inf"],
    )
    def test_rejects_non_finite_edges(self, edges, counts):
        # A NaN edge used to give NaN heights, and an infinite one a height of 0.
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Histogram(edges, counts, True)

    @pytest.mark.parametrize(
        "counts, density_mode, message",
        [([2.7], False, "be non-negative integers, got \\[2.7\\]"),
         (np.array([2.0]), False, "be non-negative integers"),
         ([True], False, "be non-negative integers"),
         ([-3], True, "be non-negative integers, got \\[-3\\]"),
         ([0], True, "not all be 0 in density mode")],
        ids=["fraction", "whole-float", "bool", "negative", "empty-density"],
    )
    def test_rejects_counts_no_histogram_can_have(self, counts, density_mode, message):
        # 2.7 used to be stored as 2, -3 gave a density height of 1, and an
        # all-zero density histogram NaN heights.
        with pytest.raises(ValueError, match="counts must " + message):
            Histogram([0.0, 1.0], counts, density_mode)

    def test_equality(self):
        a = build_histogram([0.1, 0.6], bins=2)
        b = build_histogram([0.1, 0.6], bins=2)
        c = build_histogram([0.1, 0.6], bins=2, density_mode=True)
        assert a == b
        assert a != c
        assert a != "something else"

    def test_immutable_arrays(self):
        h = build_histogram([0.1, 0.6], bins=2)
        with pytest.raises(ValueError):
            h.counts[0] = 5

    def test_copies_the_callers_arrays(self):
        edges, counts = np.array([0.0, 0.5, 1.0]), np.array([1, 2])
        h = Histogram(edges, counts, True)
        assert edges.flags.writeable and counts.flags.writeable
        assert not h.bin_edges.flags.writeable and not h.counts.flags.writeable
        edges[0], counts[0] = -1.0, 7
        assert h.bin_edges.tolist() == [0.0, 0.5, 1.0] and h.counts.tolist() == [1, 2]

    @pytest.mark.parametrize("mode", ["no", None, 1, 0.0], ids=["str", "None", "int", "float"])
    def test_rejects_non_bool_density_mode(self, mode):
        # "no" used to give density heights and a JSON "density_mode": "no";
        # None wrote null.
        with pytest.raises(ValueError, match=f"density_mode must be a bool, got {mode!r}$"):
            build_histogram([0.1, 0.6], bins=2, density_mode=mode)

    def test_numpy_bool_density_mode_stored_as_bool(self):
        h = build_histogram([0.1, 0.6], bins=2, density_mode=np.bool_(True))
        assert h.density_mode is True


class TestGrid:
    """The one grid formula of the histogram edges and overlay grids, against np.linspace."""

    def test_equals_linspace(self):
        # Ranges from 1e-300 to 1e300 wide, on either side of zero or across
        # it, at 2 to 4096 points, and the report's own shapes: distances in
        # [0, 30] at 31 edges and 512 overlay points.
        rng = np.random.default_rng(26)
        cases = [(0.0, 30.0, 31), (0.25, 29.5, 512), (3.0, 3.0, 2), (-1.0, 1.0, 2)]
        for scale in 10.0 ** np.arange(-300, 301, 25):
            for _ in range(40):
                lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2) + rng.choice([-1.0, 0.0, 1.0]))
                cases.append((lo * scale, hi * scale, int(rng.integers(2, 4097))))
        for lo, hi, n in cases:
            assert np.array_equal(estimation._grid(lo, hi, n), np.linspace(lo, hi, n)), (lo, hi, n)


class TestEmpiricalCdf:
    def test_from_values_sorts(self):
        e = EmpiricalCdf.from_values([0.3, 0.1, 0.2])
        assert np.array_equal(e.sorted_values, [0.1, 0.2, 0.3])
        assert e.sorted_values.size == 3

    def test_holds_a_float64_input_read_only_without_a_copy(self):
        values = np.array([0.1, 0.2, 0.3])
        assert EmpiricalCdf(values).sorted_values is values
        assert not values.flags.writeable

    def test_rejects_unsorted_constructor_input(self):
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalCdf(np.array([0.2, 0.1]))
        with pytest.raises(ValueError, match="1-D"):
            EmpiricalCdf(np.array([[0.1, 0.2], [0.3, 0.4]]))

    @pytest.mark.parametrize("at", [2**16 - 2, 2**16 - 1, 2**16])
    def test_rejects_a_step_down_between_check_blocks(self, at):
        # Sortedness is checked 2**16 values at a time; a step down from
        # value `at` to the next, at or near the first block's end, is seen.
        values = np.arange(2**16 + 3, dtype=np.float64)
        values[at + 1] = values[at] - 0.5
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalCdf(values)

    @pytest.mark.parametrize(
        "values", [[0.1, np.nan, 0.2], [np.nan], [np.nan, 0.1], [0.1, np.nan]]
    )
    def test_rejects_nan(self, values):
        # NaN made the old `diff < 0` sortedness check pass, and KS return nan.
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf(np.array(values))
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalCdf.from_values(values)

    def test_accepts_empty_and_infinite_values(self):
        assert EmpiricalCdf(np.array([])).sorted_values.size == 0
        assert EmpiricalCdf(np.array([-np.inf, 0.5, np.inf])).sorted_values.size == 3

    def test_empty_is_sorted_but_has_no_ks_statistic(self):
        assert estimation._is_sorted(np.empty(0))
        with pytest.raises(ValueError, match="empty sample"):
            ks_statistic(EmpiricalCdf(np.empty(0)), lambda x: np.clip(x, 0.0, 1.0))


class TestKsStatistic:
    def test_hand_computed_value(self):
        # Sample {0.1, 0.4, 0.8} against the uniform CDF F(x) = x:
        # the largest one-sided gap is 2/3 - 0.4 = 4/15.
        e = EmpiricalCdf.from_values([0.1, 0.4, 0.8])
        d = ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(4 / 15, abs=1e-15)

    def test_perfect_fit_lower_bound(self):
        # Against its own step function evaluated at the right limits the
        # statistic is 1/(2N) at best; against the matching continuous CDF
        # on a tight grid it stays small but positive.
        e = EmpiricalCdf.from_values(np.linspace(0.005, 0.995, 100))
        d = ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0))
        assert 0.0 < d <= 0.01 + 1e-12

    def test_uniform_quantile_sample(self):
        # Nine points at i/10 versus the uniform CDF: both one-sided gaps
        # peak at exactly 1/10.
        e = EmpiricalCdf.from_values([i / 10 for i in range(1, 10)])
        d = ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.1, abs=1e-15)

    def test_constant_sample_against_uniform(self):
        e = EmpiricalCdf.from_values([0.5] * 100)
        d = ks_statistic(e, lambda x: np.clip(x, 0.0, 1.0))
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_draws_from_reference_pass_at_large_n(self):
        # 10^5 draws from the dim-3 distance law against its own CDF stay
        # below the 1% critical value.
        x = sample_distances(SampleSpec(dim=3, num_pairs=100_000, seed=12))
        d = ks_statistic(EmpiricalCdf.from_values(x), exact_density(3).cdf)
        assert d <= ks_critical_value(100_000, 0.01)

    def test_matches_scipy(self):
        from l1cube import SampleSpec, sample_distances

        dens = exact_density(3)
        x = sample_distances(SampleSpec(dim=3, num_pairs=500, seed=11))
        mine = ks_statistic(EmpiricalCdf.from_values(x), dens.cdf)
        ref = scipy.stats.kstest(x, dens.cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-14)

    def test_scalar_only_reference_callable(self):
        # math.erf cannot take arrays, so the first call raises its own error
        # and F is not called again.
        e = EmpiricalCdf.from_values(np.linspace(-2, 2, 41))
        reference, calls = _counted(lambda x: 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2))))
        with pytest.raises(TypeError):
            ks_statistic(e, reference)
        assert calls == [4]  # the coarse points 0, 16, 32 and 40

    @pytest.mark.parametrize("n", [1, 41, 5000])
    def test_scalar_for_an_array_raises(self, n):
        # F answers the coarse points, then every point, with one number.
        e = EmpiricalCdf.from_values(np.linspace(0, 1, n))
        reference, calls = _counted(lambda x: 0.5)
        with pytest.raises(ValueError, match="reference_cdf"):
            ks_statistic(e, reference)
        assert calls[-1] == n and len(calls) == 2

    @pytest.mark.parametrize("at", [0, 16, 4999])
    def test_nan_from_the_reference_raises(self, at):
        # Blocks hold 16 points at this N, so sorted indices 0, 16 and N - 1
        # are evaluated whatever is skipped. full_ks gives NaN; a number
        # here would depend on where the NaN falls.
        x = np.sort(np.random.default_rng(5).random(5000))
        bad = x[at]
        reference = lambda v: np.where(np.asarray(v) == bad, np.nan, np.clip(v, 0.0, 1.0))
        assert math.isnan(full_ks(EmpiricalCdf(x), reference))
        with pytest.raises(ValueError, match="reference_cdf"):
            ks_statistic(EmpiricalCdf(x), reference)

    def test_nan_from_a_scalar_only_reference_raises(self):
        # Such a callable fails on the coarse points, before any NaN is seen:
        # `v == bad` is an array, which has no truth value.
        x = np.sort(np.random.default_rng(5).random(5000))
        bad = x[7]
        reference, calls = _counted(lambda v: math.nan if v == bad else float(v))
        with pytest.raises(ValueError, match="truth value"):
            ks_statistic(EmpiricalCdf(x), reference)
        assert len(calls) == 1

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_statistic(EmpiricalCdf.from_values([]), lambda x: x)

    def test_detects_wrong_reference(self):
        from l1cube import NormalApprox, SampleSpec, normal_cdf, sample_distances

        # dim-1 distances against a dim-2 reference must fail decisively.
        x = sample_distances(SampleSpec(dim=1, num_pairs=2000, seed=4))
        wrong = NormalApprox.for_dim(2)
        d = ks_statistic(EmpiricalCdf.from_values(x), lambda v: normal_cdf(wrong, v))
        assert d > 10 * ks_critical_value(2000, 0.01)


def _counted(reference):
    """`reference` and a list that gets the size of each argument it is called with."""
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return reference(x)

    return counted, calls


def _reference_cdfs(dim: int) -> tuple:
    """Both references of a sweep row: the normal limit and the exact CDF."""
    approx = NormalApprox.for_dim(dim)
    # The closed form holds at any dim; exact_density stops at its ceiling.
    density = exact_density(dim) if dim <= EXACT_DENSITY_MAX_DIM else closed_form_density(dim)
    return (lambda x: normal_cdf(approx, x), density.cdf)


def _table_reference(table: list) -> tuple:
    """The sample 0, 1, ..., n - 1 and a reference with F(i) = table[i]."""
    values = np.array(table, dtype=np.float64)
    sample = EmpiricalCdf(np.arange(values.size, dtype=np.float64))
    return sample, lambda x: values[np.asarray(x, dtype=np.float64).astype(np.int64)]


class TestKsBlocks:
    """ks_statistic skips blocks of sorted points; it must return full_ks's double."""

    STRIDE = estimation._KS_STRIDE
    BATCH = estimation._KS_BATCH
    # From this N up, blocks hold STRIDE points.
    TOP = 1 << 17

    @classmethod
    def assert_matches(cls, sample, reference):
        # F is called on the block starts and the last point (3,908 points at
        # 10^6, within the default batch), then on batches of at most
        # _KS_BATCH points, which a test may shrink.
        sizes = []

        def recorded(x):
            values = reference(x)
            sizes.append(np.size(x))
            return values

        assert ks_statistic(sample, recorded) == full_ks(sample, reference)
        assert sizes[0] <= cls.BATCH and max(sizes[1:], default=0) <= estimation._KS_BATCH

    @pytest.mark.parametrize("dim", [*range(1, 31), 50, 100])
    def test_dims_against_both_references(self, dim):
        # Just past the size where blocks reach 256 points, with a partial
        # last block.
        n = self.TOP + self.STRIDE + 3
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(dim, n, seed=dim)))
        for reference in _reference_cdfs(dim):
            self.assert_matches(e, reference)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sizes_up_past_the_threshold(self, seed):
        # Sizes from one point up past 2^17, where blocks reach 256 points:
        # each block size (the largest power of two at most N/512, kept
        # between 16 and 256) and each boundary between two of them. At
        # every size the first call of F is the coarse one: every block's
        # first point and the last point.
        m, t = self.STRIDE, self.TOP
        refs = _reference_cdfs(3)
        small = [1, 2, 3, 4, 15, 16, 17, 31, 32, 33, m - 1, m, m + 1, 2 * m + 1, 1000, 4097]
        for n, stride in [*((n, 16) for n in small), (10**4, 16), (2**14 - 1, 16), (2**14, 32),
                          (2**15 - 1, 32), (2**15 + 17, 64), (2**16 + 1, 128), (10**5, 128),
                          (t - 1, 128), (t, 256), (t + m - 1, 256), (2 * t + 2 * m + 1, 256)]:
            e = EmpiricalCdf.from_values(sample_distances(SampleSpec(3, n, seed=seed)))
            for reference in refs:
                self.assert_matches(e, reference)
                sizes = []
                ks_statistic(e, lambda x: sizes.append(x.size) or reference(x))
                assert sizes[0] == -(-(n - 1) // stride) + 1

    @pytest.mark.parametrize("dim", [1, 5, 20])
    def test_million_points(self, dim):
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(dim, 1_000_000, seed=dim)))
        for reference in _reference_cdfs(dim):
            self.assert_matches(e, reference)

    @classmethod
    def assert_batched(cls, n, sizes, gathered):
        # One coarse call at every 256th point and the last, then the gathered
        # blocks in batches of at most 8,192 points, summing to the points
        # of the blocks that can hold the supremum.
        coarse, *batches = sizes
        assert coarse == -(-(n - 1) // cls.STRIDE) + 1
        assert batches and max(batches) <= estimation._KS_BATCH
        assert sum(batches) == gathered

    @pytest.mark.parametrize("seed, evaluated", [(1, 67_464), (2, 68_264)])
    def test_bracketed_at_ten_thousand_points(self, seed, evaluated):
        # gof-exact's rows: dims 1-30 at 10^4 points, seeded as the CLI
        # seeds them. Blocks hold 16 points at this N, so the coarse call
        # takes every 16th point and the last; then the gathered blocks come
        # in batches. Both references are evaluated at about 11% of the
        # 600,000 points a pass over every point takes.
        n, total = 10_000, 0
        for dim in range(1, 31):
            spec = SampleSpec(dim, n, seed=derive_seed(seed, dim))
            e = EmpiricalCdf.from_values(sample_distances(spec))
            for reference in _reference_cdfs(dim):
                self.assert_matches(e, reference)
                sizes = []
                ks_statistic(e, lambda x: sizes.append(x.size) or reference(x))
                coarse, *batches = sizes
                assert coarse == 626 and batches and max(batches) <= estimation._KS_BATCH
                assert sum(sizes) < n / 4
                total += sum(sizes)
        assert total == evaluated <= 0.15 * 30 * 2 * n

    def test_evaluates_a_fraction_of_points(self):
        # At sweep-heavy's 10^6 points per row, the blocks that can hold the
        # supremum hold about 7% (normal) and 12% (exact) of them at dim 5.
        n = 1_000_000
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(5, n, seed=5)))
        for reference, gathered in zip(_reference_cdfs(5), (68_096, 116_480)):
            sizes = []
            ks_statistic(e, lambda x: sizes.append(x.size) or reference(x))
            self.assert_batched(n, sizes, gathered)

    @pytest.mark.parametrize(
        "dim, n, gathered", [(1, 131_072, 131_072), (1, 200_000, 199_936), (5, 131_072, 112_640)],
        ids=["1-131072", "1-200000", "5-131072"])
    def test_full_pass_when_most_blocks_can_win(self, dim, n, gathered):
        # At and just past 2^17 points, where blocks first hold 256 points,
        # the sample fits its exact reference so well that blocks holding
        # over half the points, or all of them, could hold the supremum.
        # They are gathered in batches like any others: no call of F takes
        # every point.
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(dim, n, seed=dim)))
        for reference in _reference_cdfs(dim):
            self.assert_matches(e, reference)
        sizes = []
        exact = exact_density(dim).cdf
        ks_statistic(e, lambda x: sizes.append(x.size) or exact(x))
        self.assert_batched(n, sizes, gathered)
        assert gathered > n / 2

    @pytest.mark.parametrize(
        "dim, gathered", [(1, (256, 168_704)), (20, (49_920, 123_904))], ids=["1", "20"])
    def test_million_points_still_gathered(self, dim, gathered):
        # sweep-heavy's rows gather a fraction of their points.
        n = 1_000_000
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(dim, n, seed=dim)))
        for reference, points in zip(_reference_cdfs(dim), gathered):
            sizes = []
            ks_statistic(e, lambda x: sizes.append(x.size) or reference(x))
            self.assert_batched(n, sizes, points)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_batches_of_any_size(self, batch, monkeypatch):
        # Batches of one and of three 256-point blocks, so that the gathered
        # blocks take many batches at these sizes, whether some blocks are
        # skipped or, where F steps back, none is.
        monkeypatch.setattr(estimation, "_KS_BATCH", batch * self.STRIDE)
        refs = _reference_cdfs(3)
        for n in [1000, self.TOP + 3 * self.STRIDE + 5, 300_000]:
            e = EmpiricalCdf.from_values(sample_distances(SampleSpec(3, n, seed=n)))
            for reference in refs:
                self.assert_matches(e, reference)
        # F steps back at the last point, so no block is skipped; the
        # supremum sits at that point, which only the first call evaluates.
        n = 3 * batch * self.STRIDE + 1
        sample, reference = _table_reference([(i + 0.5) / n for i in range(n - 1)] + [0.2])
        assert ks_statistic(sample, reference) == full_ks(sample, reference) == 1.0 - 0.2
        e = EmpiricalCdf.from_values(np.random.default_rng(7).random(5000))
        self.assert_matches(e, lambda x: np.floor(np.asarray(x) * 7) / 7)

    @pytest.mark.parametrize("n", [5000, 300_000])
    @pytest.mark.parametrize(
        "reference",
        [
            # Seven jumps of 1/7: the supremum sits just before a jump
            # (floor) or just after one (ceil), mostly inside a block.
            lambda x: np.floor(np.asarray(x) * 7) / 7,
            lambda x: np.minimum(np.ceil(np.asarray(x) * 7) / 7, 1.0),
            # Flat over [0.3, 0.6] and [0.8, 0.9], each many blocks long.
            lambda x: np.interp(x, [0, 0.3, 0.6, 0.8, 0.9, 1], [0, 0.45, 0.45, 0.9, 0.9, 1]),
            # Steps back by 1e-15 at about half the points, within the slack.
            lambda x: np.asarray(x) - 1e-15 * (np.asarray(x) * 1e6 % 1.0 < 0.5),
            # Not a CDF: decreasing, so no block is skipped.
            lambda x: 1.0 - np.asarray(x),
        ],
        ids=["step-floor", "step-ceil", "flat-stretches", "steps-back", "decreasing"],
    )
    def test_adversarial_references(self, n, reference):
        e = EmpiricalCdf.from_values(np.random.default_rng(n).random(n))
        self.assert_matches(e, reference)

    def test_supremum_in_first_block(self):
        # F jumps to 0.3 at point 5, inside block 0: F(5) - 5/n is the supremum.
        n = 2000
        sample, reference = _table_reference(
            [(i + 0.5) / n if i < 5 else max(0.3, (i + 0.5) / n) for i in range(n)])
        assert ks_statistic(sample, reference) == full_ks(sample, reference) == 0.3 - 5 / n

    def test_supremum_in_last_partial_block(self):
        # Blocks hold 16 points at this n and start at 0, 16, ..., 1984; the
        # last one is partial. F is flat from point 1850 on and jumps to 1 at
        # the last point, so the supremum is (n - 1)/n - F(n - 2), inside
        # that block.
        n = 2000
        table = [(min(i, 1850) + 0.5) / n for i in range(n - 1)] + [1.0]
        sample, reference = _table_reference(table)
        assert ks_statistic(sample, reference) == full_ks(sample, reference)
        assert full_ks(sample, reference) == (n - 1) / n - table[n - 2]

    def test_supremum_beyond_a_bound_by_a_backward_step(self):
        # Blocks hold 16 points at this n. Block 47 (points 752..767) is
        # flat, so its D+ bound 768/n - F(752) is attained at point 767, up
        # to the 1e-15 that F steps back there.
        # The bound sits 5e-16 under the value the coarse point 1280 attains,
        # so only the slack keeps block 47, and its supremum, from being skipped.
        n, low = 2000, 0.3
        flat = 768 / n - low + 5e-16
        table = [min((i + 0.5) / n, flat) for i in range(767)] + [flat - 1e-15, flat + 1 / n]
        table += [(i + 0.5) / n for i in range(769, 1280)]
        table += [max(1280 / n + low, (i + 0.5) / n) for i in range(1280, n)]
        sample, reference = _table_reference(table)
        supremum = full_ks(sample, reference)
        assert 768 / n - table[752] < table[1280] - 1280 / n < supremum == 768 / n - table[767]
        assert ks_statistic(sample, reference) == supremum

    def test_precomputed_reference_of_the_wrong_shape(self):
        # A callable that ignores its argument and returns F at every sorted
        # point, as perfbench's replica passes: the full path answers.
        n = 10_000
        e = EmpiricalCdf.from_values(sample_distances(SampleSpec(2, n, seed=9)))
        ref = exact_density(2).cdf(e.sorted_values)
        assert ks_statistic(e, lambda _: ref) == full_ks(e, exact_density(2).cdf)

    def test_scalar_only_reference_past_the_threshold(self):
        # Past 2^17 points, a callable that takes scalars only still fails at
        # its first call, on the block starts.
        e = EmpiricalCdf.from_values(np.linspace(-2, 2, self.TOP + 1))
        reference, calls = _counted(lambda x: 0.5 * (1.0 + math.erf(float(x) / math.sqrt(2))))
        with pytest.raises(TypeError):
            ks_statistic(e, reference)
        assert len(calls) == 1


class TestKsMemory:
    """The block path holds less than the sample: no N-length temporary, no copy."""

    @pytest.mark.parametrize("dim, which", [(20, "exact"), (100, "normal")])
    def test_peak_below_the_sample(self, dim, which):
        # At 10^6 points these peaks read about 0.53 (dim 20, exact) and
        # 0.92 MiB (dim 100, normal) against the sample's 7.6 MiB; one more
        # array of N floats or indices would pass the sample's size.
        x = sample_distances(SampleSpec(dim, 1_000_000, seed=dim))
        x.sort()
        sample = EmpiricalCdf(x)
        normal, exact = _reference_cdfs(dim)
        reference = exact if which == "exact" else normal
        reference(x[:8])  # builds any cached state outside the trace
        tracemalloc.start()
        try:
            ks_statistic(sample, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes


class TestKsBatchMemory:
    """KS holds one batch of 8,192 points at a time, whatever N."""

    @staticmethod
    def peak(x, reference):
        x.sort()
        sample = EmpiricalCdf(x)
        reference(x[:8])  # builds any cached state outside the trace
        tracemalloc.start()
        try:
            ks_statistic(sample, reference)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_over_many_batches(self):
        # At 10^6 points, dim 1's exact reference gathers 168,704 points: 21
        # batches. The peak reads 0.54 MiB; gathered at once, as before the
        # batches, the same blocks peaked at 6.5 MiB.
        x = sample_distances(SampleSpec(1, 1_000_000, seed=1))
        assert self.peak(x, exact_density(1).cdf) < estimation._KS_BATCH_BYTES

    def test_peak_when_most_blocks_can_win(self):
        # At 200,000 points, dim 1's exact reference gathers 199,936 points:
        # 25 batches. The peak reads 0.46 MiB; with F called once on every
        # point, as before, it read 2.05 MiB.
        x = sample_distances(SampleSpec(1, 200_000, seed=1))
        assert self.peak(x, exact_density(1).cdf) < estimation._KS_BATCH_BYTES

    def test_peak_when_no_block_is_skipped(self):
        # A decreasing reference steps back at the block starts, so all
        # 300,000 points are gathered: 37 batches. The peak reads 0.39 MiB;
        # with F called once on every point, as before, it read 2.81 MiB.
        x = np.random.default_rng(300_000).random(300_000)
        assert self.peak(x, lambda v: 1.0 - np.asarray(v)) < estimation._KS_BATCH_BYTES
