import functools
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from closed_form_reference import closed_form_density
from convolution_reference import (
    convolution_chain,
    float_projection,
    fraction_moment,
    gather_eval,
    segments_of,
)
from scipy.integrate import quad
from scipy.special import ndtr

from l1cube import (
    EXACT_DENSITY_MAX_DIM,
    ExperimentConfig,
    NormalApprox,
    TheoreticalMoments,
    UnsupportedDimensionError,
    exact_density,
    moments_of,
    normal_cdf,
    run_experiment,
    sup_distance_to_normal,
    theoretical_mean,
    theoretical_variance,
)
from l1cube import analytic
from l1cube.analytic import _EVAL_BLOCK, _MAXLOG, _SQRT2PI, _ndtr, _next_density
import piecewise_reference

MOMENT_DIMS = (1, 2, 3, 5, 10, 20, 30)


class TestClosedForms:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 10, 20, 50, 100])
    def test_mean_and_variance(self, dim):
        assert theoretical_mean(dim) == dim / 3.0
        assert theoretical_variance(dim) == dim / 18.0

    def test_skewness_and_kurtosis_values(self):
        one, four, ten = (TheoreticalMoments.for_dim(d) for d in (1, 4, 10))
        assert one.skewness == pytest.approx(2 * math.sqrt(2) / 5, abs=1e-15)
        assert four.skewness == pytest.approx(math.sqrt(2) / 5, abs=1e-15)
        assert one.excess_kurtosis == -0.6
        assert ten.excess_kurtosis == -0.06

    def test_skewness_decreasing_kurtosis_increasing(self):
        moments = [TheoreticalMoments.for_dim(d) for d in (1, 2, 5, 10, 50, 100)]
        skews = [m.skewness for m in moments]
        kurts = [m.excess_kurtosis for m in moments]
        assert all(a > b > 0 for a, b in zip(skews, skews[1:]))
        assert all(a < b < 0 for a, b in zip(kurts, kurts[1:]))

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "7", True])
    def test_rejects_non_positive_int(self, bad):
        if type(bad) is int:
            message = f"dim must be >= 1, got {bad}"
        else:
            message = f"dim must be an integer, got {bad!r}"
        for fn in (theoretical_mean, theoretical_variance, TheoreticalMoments.for_dim, exact_density):
            with pytest.raises(ValueError) as info:
                fn(bad)
            assert str(info.value) == message, fn.__name__

    def test_accepts_numpy_integers(self):
        assert theoretical_mean(np.int64(6)) == 2.0
        assert type(TheoreticalMoments.for_dim(np.int64(6)).dim) is int

    def test_moments_bundle(self):
        m = TheoreticalMoments.for_dim(9)
        assert m.dim == 9
        assert m.mean == 3.0
        assert m.variance == 0.5
        assert m.skewness == math.sqrt(8 / 225)
        assert m.excess_kurtosis == -1 / 15


class TestSingleDimDensity:
    def test_scalar_values(self):
        pdf = exact_density(1).pdf
        assert pdf(0.0) == 2.0
        assert pdf(1.0) == 0.0
        assert pdf(0.25) == 1.5
        assert pdf(-0.1) == 0.0
        assert pdf(1.1) == 0.0

    def test_array_form(self):
        z = np.array([-1.0, 0.0, 0.5, 2.0])
        assert np.array_equal(exact_density(1).pdf(z), [0.0, 2.0, 1.0, 0.0])

    def test_first_moment_is_one_third(self):
        pdf = exact_density(1).pdf
        val, _ = quad(lambda z: z * pdf(z), 0, 1)
        assert val == pytest.approx(1 / 3, abs=1e-12)

    def test_normalized(self):
        val, _ = quad(exact_density(1).pdf, 0, 1)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestExactDensity:
    def test_dim_one_is_the_triangle(self):
        d = exact_density(1)
        assert segments_of(d) == ((Fraction(2), Fraction(-2)),)
        assert d.dim == 1

    def test_matches_triangle_pointwise(self):
        xs = np.linspace(0, 1, 101)
        assert np.allclose(exact_density(1).pdf(xs), 2 * (1 - xs), atol=1e-15)

    def test_dim_two_spot_values(self):
        # Reference values from an independent adaptive-quadrature
        # convolution of the triangular density with itself.
        d = exact_density(2)
        expected = {
            0.1: 0.3606666666666667,
            0.25: 0.7604166666666666,
            0.5: 1.0833333333333333,
            0.75: 1.03125,
            1.0: 0.6666666666666667,
            1.25: 0.28125,
            1.5: 0.08333333333333333,
            1.9: 0.0006666666666666683,
        }
        for x, fx in expected.items():
            assert d.pdf(x) == pytest.approx(fx, abs=1e-12), f"pdf({x})"

    def test_dim_three_spot_values(self):
        # Same oracle, one more convolution step.
        d = exact_density(3)
        expected = {
            0.3: 0.259938,
            0.9: 0.9407339999999998,
            1.0: 0.9333333333333332,
            1.5: 0.43749999999999994,
            2.2: 0.021845333333333307,
            2.9: 6.666666666666699e-07,
        }
        for x, fx in expected.items():
            assert d.pdf(x) == pytest.approx(fx, abs=1e-12), f"pdf({x})"

    def test_zero_outside_support(self):
        d = exact_density(2)
        assert d.pdf(-0.5) == 0.0
        assert d.pdf(2.5) == 0.0
        assert d.pdf(0.0) == 0.0  # vanishes at the left edge for dim >= 2
        # the right endpoint is evaluated through the last segment's float
        # projection, so it is zero only to rounding
        assert d.pdf(2.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dim", MOMENT_DIMS)
    def test_unit_mass_exactly(self, dim):
        assert exact_density(dim).moment(0) == 1

    @pytest.mark.parametrize("dim", MOMENT_DIMS)
    def test_exact_rational_moments(self, dim):
        # Cumulants add over i.i.d. summands: kappa2 = 1/18, kappa3 = 1/135,
        # kappa4 = -1/540 per dimension; checked in exact arithmetic.
        d = exact_density(dim)
        mean = Fraction(dim, 3)
        assert d.moment(1) == mean
        assert d.moment(2, center=mean) == Fraction(dim, 18)
        assert d.moment(3, center=mean) == Fraction(dim, 135)
        assert d.moment(4, center=mean) == Fraction(dim * dim, 108) - Fraction(dim, 540)

    @pytest.mark.parametrize("dim", range(1, EXACT_DENSITY_MAX_DIM + 1))
    def test_moments_of_matches_closed_forms(self, dim):
        # Every field, the dim included, bit for bit.
        assert moments_of(exact_density(dim)) == TheoreticalMoments.for_dim(dim)

    @pytest.mark.parametrize("dim", range(1, EXACT_DENSITY_MAX_DIM + 1))
    def test_moments_of_rounds_once(self, dim):
        # mu4 / mu2^2 - 3 is exactly -3/(5n), and mu3^2 / mu2^3 exactly
        # 8/(25n); one rounding of each gives the closed form's bits, and the
        # skewness is the square root of the second.
        m = moments_of(exact_density(dim))
        assert m.excess_kurtosis == -3 / (5 * dim)
        assert m.skewness == math.sqrt(8 / (25 * dim))

    @pytest.mark.parametrize("dim", [2, 3, 7, 30])
    def test_continuous_at_breakpoints(self, dim):
        # Adjacent segments agree exactly at shared breakpoints in rational
        # arithmetic (the density is C^0 for dim >= 2).
        segs = segments_of(exact_density(dim))
        for left, right in zip(segs, segs[1:]):
            assert sum(left, Fraction(0)) == right[0]

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 30])
    def test_nonnegative_on_dense_grid(self, dim):
        xs = np.linspace(0, dim, 4001)
        assert np.all(exact_density(dim).pdf(xs) >= -1e-12)

    def test_float_projection_conditioning_at_ceiling(self):
        # Horner evaluation of the float64 coefficients must agree with
        # exact rational evaluation even at dim 30, where global-coordinate
        # representations would have lost everything to cancellation.
        d = exact_density(EXACT_DENSITY_MAX_DIM)
        for x in (0.75, 7.5, 10.25, 15.0, 22.5):
            seg = min(int(x), d.dim - 1)
            t = Fraction(x) - seg
            exact = sum(
                c * t**i for i, c in enumerate(segments_of(d)[seg])
            )
            assert d.pdf(x) == pytest.approx(float(exact), rel=1e-12)

    def test_ceiling_enforced(self):
        for dim in (EXACT_DENSITY_MAX_DIM + 1, 100):
            with pytest.raises(UnsupportedDimensionError):
                exact_density(dim)
        # the ceiling error is still a ValueError for coarse handlers
        with pytest.raises(ValueError):
            exact_density(EXACT_DENSITY_MAX_DIM + 1)

    def test_cache_returns_shared_instance(self):
        assert exact_density(4) is exact_density(4)

    def test_cache_is_thread_safe(self):
        results = []
        barrier = threading.Barrier(8)

        def build():
            barrier.wait()
            results.append(exact_density(12))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)

    def test_racing_steps_keep_one_density_per_dim(self, monkeypatch):
        # Threads step up through the same dims of an emptied cache at once,
        # each from whatever is cached when it starts; every dim must end up
        # with one shared instance, the one each thread got back.
        monkeypatch.setattr(analytic, "_density_cache", {})
        orders = [(30, 12), (12, 30), (20, 5, 30), (7, 25), (30,), (2, 29), (16, 30), (9, 3)]
        results = [[] for _ in orders]
        barrier = threading.Barrier(len(orders))

        def build(order, got):
            barrier.wait()
            got.extend((dim, exact_density(dim)) for dim in order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=args) for args in zip(orders, results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        cache = analytic._density_cache
        assert sorted(cache) == list(range(2, EXACT_DENSITY_MAX_DIM + 1))
        assert all(density is cache[dim] for got in results for dim, density in got)
        assert all(len(got) == len(order) for got, order in zip(results, orders))
        assert cache[30].numerators == closed_form(30).numerators


@pytest.fixture(scope="module")
def convolution_oracle():
    return convolution_chain(EXACT_DENSITY_MAX_DIM)


class TestAgainstConvolutionOracle:
    """The exact densities against iterated rational convolution, dim by dim.

    Equal float matrices pin every pdf and cdf value the CLI reports (the
    ks_exact column and the overlay files) to the convolution engine's.
    """

    @pytest.mark.parametrize("dim", range(1, EXACT_DENSITY_MAX_DIM + 1))
    def test_segments_and_float_coefficients(self, convolution_oracle, dim):
        d = exact_density(dim)
        assert segments_of(d) == convolution_oracle[dim]
        pdf, cdf = float_projection(convolution_oracle[dim])
        assert np.array_equal(d._pdf_coeffs, pdf)
        assert np.array_equal(d._cdf_coeffs, cdf)


def assert_moments_match_oracle(density):
    # Orders 0-2 about zero, then 2-4 about the exact mean: the integer
    # moment must equal the Fraction oracle exactly.
    for order in (0, 1, 2):
        assert density.moment(order) == fraction_moment(segments_of(density), order)
    mean = density.moment(1)
    for order in (2, 3, 4):
        assert density.moment(order, center=mean) == fraction_moment(
            segments_of(density), order, mean
        )


class TestMomentAgainstFractionOracle:
    @pytest.mark.parametrize("dim", range(1, EXACT_DENSITY_MAX_DIM + 1))
    def test_equals_fraction_integration(self, dim):
        assert_moments_match_oracle(exact_density(dim))

    def test_equals_fraction_integration_at_dim_100(self):
        assert_moments_match_oracle(closed_form_density(100))


@functools.cache
def closed_form(n):
    return closed_form_density(n)


class TestTwoBuilders:
    """The one-step builder against the test-side closed form, and how often it runs."""

    @pytest.mark.parametrize("n", range(1, 60))
    def test_step_equals_closed_form(self, n):
        step, whole = _next_density(closed_form(n)), closed_form(n + 1)
        assert step.numerators == whole.numerators
        assert step.denominator == whole.denominator
        assert np.array_equal(step._pdf_coeffs, whole._pdf_coeffs)
        assert np.array_equal(step._cdf_coeffs, whole._cdf_coeffs)

    def test_triangle_is_the_closed_form_at_dim_one(self):
        assert analytic._TRIANGLE == closed_form(1)

    def test_every_order_takes_the_same_steps(self, monkeypatch):
        # With an emptied cache, each order steps once per dimension from 2
        # to 30, whichever dimension it asks for first, and builds no other
        # density; the rows do not depend on the order.
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_next_density", "PiecewisePolynomial"):
            monkeypatch.setattr(analytic, name, counted(name, getattr(analytic, name)))
        dims = range(1, EXACT_DENSITY_MAX_DIM + 1)
        runs = []
        for order in (dims, reversed(dims), (5, 20, 3, 30, 29, 1)):
            monkeypatch.setattr(analytic, "_density_cache", {})
            calls.clear()
            cfg = ExperimentConfig(dims=tuple(order), num_pairs=2000, seed=5, emit_gof=True)
            rows = {row.dim: row for row in run_experiment(cfg).rows}
            assert calls.count("_next_density") == EXACT_DENSITY_MAX_DIM - 1
            assert calls.count("PiecewisePolynomial") == EXACT_DENSITY_MAX_DIM - 1
            assert all(row.ks_exact is not None for row in rows.values())
            runs.append(rows)
        up = runs[0]
        assert all(rows[dim] == up[dim] for rows in runs[1:] for dim in rows)


class TestClosedFormBeyondCeiling:
    """The closed-form oracle's density at dim 100, past the public ceiling."""

    DIM = 100

    @pytest.fixture(scope="class")
    def density(self):
        return closed_form_density(self.DIM)

    def test_unit_mass_exactly(self, density):
        assert density.dim == self.DIM
        assert density.moment(0) == 1

    def test_continuous_at_breakpoints(self, density):
        segs = segments_of(density)
        for left, right in zip(segs, segs[1:]):
            assert sum(left, Fraction(0)) == right[0]

    def test_exact_mean_and_variance(self, density):
        mean = density.moment(1)
        assert mean == Fraction(self.DIM, 3)
        assert density.moment(2, center=mean) == Fraction(self.DIM, 18)

    def test_float_projection_conditioning(self, density):
        for x in (20.5, 30.25, 33.3, 40.75, 60.5):
            seg = int(x)
            t = Fraction(x) - seg
            exact = sum(c * t**i for i, c in enumerate(segments_of(density)[seg]))
            assert density.pdf(x) == pytest.approx(float(exact), rel=1e-12)


def evaluation_inputs(dim):
    """Points that exercise every branch of the per-segment evaluator."""
    rng = np.random.default_rng(dim)
    breakpoints = np.arange(dim + 1, dtype=np.float64)
    grid = np.sort(np.concatenate([
        np.linspace(-1.0, dim + 1.0, 2001),
        breakpoints,
        np.nextafter(breakpoints, -np.inf),
        np.nextafter(breakpoints, np.inf),
        rng.uniform(0.0, dim, 1000),
    ]))
    special = np.array([np.nan, np.inf, -np.inf, -0.0, np.nan])
    shuffled = rng.permutation(np.concatenate([grid, special]))
    return {
        "sorted": grid,
        "sorted_with_infinities": np.concatenate([[-np.inf], grid, [np.inf]]),
        "sorted_then_nan": np.concatenate([grid, [np.nan]]),
        "unsorted": shuffled,
        "2d_sorted": grid[: grid.size // 4 * 4].reshape(4, -1),
        "2d_unsorted": shuffled[: shuffled.size // 5 * 5].reshape(-1, 5),
        "empty": np.empty(0),
    }


def evaluation_scalars(dim):
    return [*range(dim + 1), *map(float, range(dim + 1)), -0.5, -0.0, 0.5,
            dim - 0.5, dim + 0.5, np.float64(dim / 3), math.nan, math.inf, -math.inf]


class TestPerSegmentEvaluation:
    """pdf and cdf against the per-point gather they replaced, bit for bit."""

    @pytest.fixture(scope="class", params=[*range(1, EXACT_DENSITY_MAX_DIM + 1), 100])
    def density(self, request):
        dim = request.param
        return exact_density(dim) if dim <= EXACT_DENSITY_MAX_DIM else closed_form_density(dim)

    @staticmethod
    def assert_equal_to_gather(density, x):
        pdf = np.maximum(gather_eval(density._pdf_coeffs, density.dim, x, 0.0, 0.0), 0.0)
        cdf = np.clip(gather_eval(density._cdf_coeffs, density.dim, x, 0.0, 1.0), 0.0, 1.0)
        if isinstance(pdf, float):  # np.float64 from a scalar x
            pdf, cdf = float(pdf), float(cdf)
        got_pdf, got_cdf = density.pdf(x), density.cdf(x)
        assert type(got_pdf) is type(pdf) and type(got_cdf) is type(cdf)
        assert np.array_equal(got_pdf, pdf, equal_nan=True), x
        assert np.array_equal(got_cdf, cdf, equal_nan=True), x

    def test_arrays(self, density):
        for x in evaluation_inputs(density.dim).values():
            self.assert_equal_to_gather(density, x)

    def test_scalars(self, density):
        for x in evaluation_scalars(density.dim):
            self.assert_equal_to_gather(density, x)

    def test_input_left_unchanged(self, density):
        x = evaluation_inputs(density.dim)["unsorted"]
        before = x.copy()
        density.cdf(x)
        assert np.array_equal(x, before, equal_nan=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOneHornerPass:
    """pdf and cdf against the per-segment Horner loops they replaced, bit for bit."""

    @staticmethod
    def assert_equal_to_per_segment(density, x):
        for got, want in ((density.pdf(x), piecewise_reference.pdf(density, np.ravel(x))),
                          (density.cdf(x), piecewise_reference.cdf(density, np.ravel(x)))):
            assert np.array_equal(np.ravel(got), want, equal_nan=True), x

    @pytest.mark.parametrize("dim", [*range(1, EXACT_DENSITY_MAX_DIM + 1), 100])
    def test_every_input_kind(self, dim):
        # Sorted and unsorted, NaN and +-inf, the integer knots, exactly
        # dim and their neighbours, 2-D and empty input.
        density = exact_density(dim) if dim <= EXACT_DENSITY_MAX_DIM else closed_form_density(dim)
        for x in evaluation_inputs(dim).values():
            self.assert_equal_to_per_segment(density, x)
        for x in evaluation_scalars(dim):
            self.assert_equal_to_per_segment(density, np.array([x], dtype=np.float64))

    @pytest.mark.parametrize("dim", [1, 30])
    @pytest.mark.parametrize("inside", [_EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1,
                                        2 * _EVAL_BLOCK + 1])
    def test_sizes_around_the_block(self, dim, inside):
        # `inside` points in [0, dim], a block boundary away, behind a run
        # below 0 so that the first block starts past index 0.
        density = exact_density(dim)
        rng = np.random.default_rng(inside + dim)
        points = np.sort(rng.uniform(0.0, dim, inside))
        points[[0, -1]] = 0.0, dim
        x = np.concatenate([[-np.inf, -2.0, -1e-300], points, [dim + 1e-9, np.inf, np.nan]])
        self.assert_equal_to_per_segment(density, x)
        self.assert_equal_to_per_segment(density, rng.permutation(x))


class TestEvaluationMemory:
    """Every reference curve holds its output and one block's temporaries, in any order and layout."""

    # Arrays of one block's doubles that each curve holds at its peak beside
    # its output, for sorted and for shuffled input:
    # - exact pdf and cdf: t, Horner's running value and one repeated
    #   coefficient; shuffled, also the block's order, its sorted points
    #   and their values before the scatter;
    # - normal pdf: z, z**2 and -0.5 * z**2 (then its exp);
    # - normal cdf: z, then `_ndtr`'s x, x * x and |x|, and in a tail its
    #   |x|, the exponents as a list (a float object and a pointer, 32 bytes
    #   a value: four arrays) and their exp.
    # One more array is allowed for masks, run edges and other small
    # objects. A second array of the input's length (61 blocks at 10^6
    # points) fails every bound.
    ARRAYS = {"pdf": (3, 6), "cdf": (3, 6), "normal pdf": (3, 3), "normal cdf": (10, 10)}

    @classmethod
    def assert_peaks_within_bound(cls, x, shuffled):
        # 10^6 points over [-1, 31] at dim 30: 62 blocks.
        for name, f, _, _ in _curves(30):
            if name not in cls.ARRAYS:
                continue  # normal_cdf is the normal cdf
            f(x[:8])  # builds the exact density's float coefficients outside the trace
            tracemalloc.start()
            try:
                out = f(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - out.nbytes < (cls.ARRAYS[name][shuffled] + 1) * 8 * _EVAL_BLOCK, name

    def test_peak_of_a_million_sorted_points(self):
        self.assert_peaks_within_bound(np.linspace(-1.0, 31.0, 1_000_000), False)

    def test_peak_of_a_million_shuffled_points(self):
        x = np.random.default_rng(33).permutation(np.linspace(-1.0, 31.0, 1_000_000))
        self.assert_peaks_within_bound(x, True)

    def test_peak_of_a_million_points_in_fortran_order(self):
        # Read in memory order, not copied to row-major first; that order is
        # not sorted, so the shuffled bounds apply.
        x = np.asfortranarray(np.linspace(-1.0, 31.0, 1_000_000).reshape(1000, 1000))
        self.assert_peaks_within_bound(x, True)

    def test_peak_of_a_million_reversed_points(self):
        # A view with a negative stride is read a block at a time, not copied;
        # its blocks descend, so the shuffled bounds apply.
        self.assert_peaks_within_bound(np.linspace(-1.0, 31.0, 1_000_000)[::-1], True)

    def test_peak_of_a_million_strided_points(self):
        # Every other point of a sorted array: each block is gathered into the
        # iterator's buffer, not the whole input into a copy.
        self.assert_peaks_within_bound(np.linspace(-1.0, 31.0, 2_000_000)[::2], False)


def _curves(dim):
    """The reference curves at `dim`, each as (name, f, limit at -inf, limit at +inf).

    The last is the free function `normal_cdf`, which delegates to `approx.cdf`.
    """
    density = exact_density(dim) if dim <= EXACT_DENSITY_MAX_DIM else closed_form_density(dim)
    approx = NormalApprox.for_dim(dim)
    return [
        ("pdf", density.pdf, 0.0, 0.0),
        ("cdf", density.cdf, 0.0, 1.0),
        ("normal pdf", approx.pdf, 0.0, 0.0),
        ("normal cdf", approx.cdf, 0.0, 1.0),
        ("normal_cdf", lambda x: normal_cdf(approx, x), 0.0, 1.0),
    ]


class TestEvaluationContract:
    """One contract for every curve: scalar in, float out; shape kept; NaN and +-inf."""

    @pytest.mark.parametrize("dim", [1, 2, 5, 30, 100])
    def test_no_warning_outside_support(self, dim):
        # Far outside the support, standardizing overflows the normal curves.
        big = np.finfo(np.float64).max
        points = [-np.inf, -big, -1e200, -1.0, dim + 1.0, 1e200, big, np.inf]
        for name, f, low, high in _curves(dim):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = f(np.array(points))
                scalars = [f(x) for x in points]
            assert got.tolist() == scalars, name
            assert (scalars[0], scalars[-1]) == (low, high), name

    @pytest.mark.parametrize("dim", [1, 4, 100])
    def test_nan_gives_nan(self, dim):
        for name, f, _, _ in _curves(dim):
            assert math.isnan(f(math.nan)), name
            assert np.isnan(f(np.array([math.nan, np.inf]))).tolist() == [True, False], name

    @pytest.mark.parametrize("x", [1.25, 1, np.float64(1.25), np.array(1.25)], ids=repr)
    def test_scalar_and_zero_d_give_float(self, x):
        for name, f, _, _ in _curves(3):
            out = f(x)
            assert type(out) is float, name
            assert out == f(np.array([x], dtype=np.float64))[0], name

    def test_list_gives_array(self):
        for name, f, _, _ in _curves(3):
            out = f([0.5, 1.5, 2.5])
            assert type(out) is np.ndarray and out.shape == (3,), name

    @pytest.mark.parametrize("dim", [3, 10, 30, 100])
    def test_densities_never_negative(self, dim):
        # Unclipped, the rounded float coefficients put the exact pdf below 0
        # within about 0.07 of x = dim: down to -1.1e-16 at dim 3 and
        # -5.6e-53 at dim 30.
        xs = np.linspace(0.0, dim, 200_001)
        for name, f, _, _ in _curves(dim):
            if "pdf" in name:
                assert f(xs).min() >= 0.0, name

    def test_fortran_order_across_blocks(self):
        # Three rows of 2 * _EVAL_BLOCK + 1 points, column-major, so that the
        # row-major order the blocks follow is not the memory order, with
        # NaN and +-inf among them. Each cell equals the curve's scalar call
        # at the block edges, the special values and 512 random cells; all
        # cells equal a call on the column-major points, which splits them
        # into other blocks.
        rng = np.random.default_rng(3)
        x = np.asfortranarray(rng.uniform(-1.0, 6.0, (3, 2 * _EVAL_BLOCK + 1)))
        special = rng.choice(x.size, 60, replace=False)
        x.flat[special] = np.resize([np.nan, np.inf, -np.inf], special.size)
        edges = [i for k in range(1, 3) for i in range(k * _EVAL_BLOCK - 2, k * _EVAL_BLOCK + 2)]
        cells = np.unique(np.concatenate([special, edges, [0, x.size - 1],
                                          rng.choice(x.size, 512, replace=False)]))
        for name, f, _, _ in _curves(5):
            out = f(x)
            assert out.shape == x.shape, name
            assert np.array_equal(out, f(x.ravel(order="F")).reshape(x.shape, order="F"),
                                  equal_nan=True), name
            scalars = [f(v) for v in x.flat[cells]]
            assert np.array_equal(out.flat[cells], scalars, equal_nan=True), name

    @pytest.mark.parametrize("shape", [(2, 3), (3, 1, 2), (0, 4)])
    def test_shape_kept(self, shape):
        x = np.linspace(-0.5, 3.5, math.prod(shape)).reshape(shape)
        for name, f, _, _ in _curves(3):
            out = f(x)
            assert out.shape == shape, name
            assert np.array_equal(out.ravel(), f(x.ravel())), name
            assert np.array_equal(f(x.T), out.T), name


class TestExactCdf:
    def test_dim_one_closed_form(self):
        d = exact_density(1)
        assert d.cdf(0.5) == pytest.approx(0.75, abs=1e-12)
        assert d.cdf(0.0) == 0.0
        assert d.cdf(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_dim_two_spot_values(self):
        # Quadrature oracle over the convolved density.
        d = exact_density(2)
        assert d.cdf(0.5) == pytest.approx(0.34375, abs=1e-12)
        assert d.cdf(1.0) == pytest.approx(0.8333333333333334, abs=1e-12)
        assert d.cdf(1.5) == pytest.approx(0.9895833333333334, abs=1e-12)

    def test_saturates_outside_support(self):
        d = exact_density(3)
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(4.0) == 1.0

    @pytest.mark.parametrize("dim", [1, 2, 5, 30])
    def test_monotone_on_dense_grid(self, dim):
        xs = np.linspace(0, dim, 10001)
        cdf = exact_density(dim).cdf(xs)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cdf_matches_pdf_by_quadrature(self):
        d = exact_density(3)
        for x in (0.4, 1.2, 2.7):
            val = sum(
                quad(d.pdf, a, min(b, x))[0]
                for a, b in ((0, 1), (1, 2), (2, 3))
                if a < x
            )
            assert d.cdf(x) == pytest.approx(val, abs=1e-10)


class TestConvolutionConsistency:
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (2, 3)])
    def test_density_of_sum_is_the_convolution(self, a, b):
        # (f_a * f_b)(x) computed by adaptive quadrature split at every
        # integrand kink must reproduce the exact density of dim a + b.
        fa, fb, fab = exact_density(a), exact_density(b), exact_density(a + b)
        for x in np.linspace(0, a + b, 101)[1:-1]:
            lo, hi = max(0.0, x - b), min(float(a), x)
            kinks = sorted(
                {lo, hi}
                | {float(k) for k in range(a + 1) if lo < k < hi}
                | {x - k for k in range(b + 1) if lo < x - k < hi}
            )
            total = sum(
                quad(lambda t: fa.pdf(t) * fb.pdf(x - t), u, v, limit=100)[0]
                for u, v in zip(kinks[:-1], kinks[1:])
            )
            assert total == pytest.approx(fab.pdf(x), abs=1e-7)


class TestNormalApprox:
    def test_for_dim(self):
        approx = NormalApprox.for_dim(100)
        assert approx.mean == pytest.approx(100 / 3)
        assert approx.variance == pytest.approx(100 / 18)
        assert approx.sigma == pytest.approx(math.sqrt(100 / 18))

    def test_rejects_bad_variance(self):
        with pytest.raises(ValueError, match="variance must be positive"):
            NormalApprox(mean=0.0, variance=0.0)
        with pytest.raises(ValueError, match="variance must be positive"):
            NormalApprox(mean=0.0, variance=-1.0)

    @pytest.mark.parametrize(
        "mean, variance", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf)]
    )
    def test_rejects_non_finite_mean_or_variance(self, mean, variance):
        # Either would give a meaningless reference: a NaN mean makes
        # normal_cdf NaN everywhere, an infinite variance a flat 0.5.
        with pytest.raises(ValueError, match="mean and variance must be finite"):
            NormalApprox(mean=mean, variance=variance)

    def test_pdf_peak_closed_form(self):
        approx = NormalApprox.for_dim(100)
        assert approx.pdf(approx.mean) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi * 100 / 18), rel=1e-15
        )

    def test_cdf_at_mean_is_half(self):
        assert normal_cdf(NormalApprox.for_dim(7), 7 / 3) == pytest.approx(0.5, abs=1e-15)

    def test_one_sigma_mass(self):
        # Standard normal mass within one sigma, from independent quadrature.
        approx = NormalApprox.for_dim(3)
        mass = normal_cdf(approx, approx.mean + approx.sigma) - normal_cdf(
            approx, approx.mean - approx.sigma
        )
        assert mass == pytest.approx(0.6826894921370859, abs=1e-9)

    def test_cdf_accuracy_against_erf(self):
        # Cross-check two independent erf code paths; both are ~1 ulp, far
        # below the 1e-12 budget KS comparisons rely on.
        approx = NormalApprox(mean=0.0, variance=1.0)
        for z in np.linspace(-8, 8, 321):
            ref = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert abs(normal_cdf(approx, z) - ref) < 1e-12

    def test_pdf_integrates_to_cdf(self):
        approx = NormalApprox.for_dim(5)
        val, _ = quad(approx.pdf, -10, approx.mean + approx.sigma)
        assert val == pytest.approx(normal_cdf(approx, approx.mean + approx.sigma), abs=1e-10)

    def test_array_forms(self):
        approx = NormalApprox.for_dim(2)
        xs = np.array([0.0, 2 / 3, 2.0])
        assert approx.pdf(xs).shape == (3,)
        assert np.all(np.diff(normal_cdf(approx, xs)) > 0)


def _neighbours(edge, ulps=4):
    """`edge` and its `ulps` nearest floats on each side."""
    out = [edge]
    for toward in (-np.inf, np.inf):
        x = edge
        for _ in range(ulps):
            x = np.nextafter(x, toward)
            out.append(x)
    return out


class TestNdtrParity:
    """The numpy port of Cephes ndtr equals scipy.special.ndtr bit for bit."""

    @staticmethod
    def assert_matches_scipy(a):
        a = np.asarray(a, dtype=np.float64)
        assert np.array_equal(_ndtr(a, np.empty_like(a)), ndtr(a), equal_nan=True)

    @pytest.mark.parametrize(
        "edge",
        [math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * _MAXLOG)],
        ids=["erf-erfc", "erfc-P-to-R", "underflow"],
    )
    def test_both_sides_of_each_branch_edge(self, edge):
        # |x| = |a| / sqrt(2) crosses 1, 8 and sqrt(MAXLOG) at these edges.
        self.assert_matches_scipy([s * v for s in (1.0, -1.0) for v in _neighbours(edge)])

    def test_special_values(self):
        tiny = np.nextafter(0.0, 1.0)
        self.assert_matches_scipy(
            [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 2.2250738585072009e-308,
             -2.2250738585072009e-308, 1e300, -1e300]
        )

    @pytest.mark.parametrize("sigma", [1.0, 4.0])
    def test_seeded_normal_draws(self, sigma):
        a = np.random.default_rng(20261).normal(0.0, sigma, 10**6)
        self.assert_matches_scipy(a)
        self.assert_matches_scipy(np.sort(a))

    @pytest.mark.parametrize("n", [_EVAL_BLOCK - 1, _EVAL_BLOCK, _EVAL_BLOCK + 1,
                                   2 * _EVAL_BLOCK + 1])
    def test_block_boundaries(self, n):
        # Through the public curves, which hand `_ndtr` one block at a time.
        # With mean 0 and variance 1, z is x exactly; the pdf is the one-shot
        # formula, bit for bit.
        approx = NormalApprox(mean=0.0, variance=1.0)
        x = np.linspace(-30.0, 30.0, n)
        for a in (x, np.random.default_rng(n).permutation(x)):
            assert np.array_equal(approx.cdf(a), ndtr(a))
            assert np.array_equal(approx.pdf(a), np.exp(-0.5 * a**2) / (_SQRT2PI * approx.sigma))

    def test_two_dimensional_through_normal_cdf(self):
        # With mean 0 and variance 1, normal_cdf standardizes exactly.
        a = np.random.default_rng(7).normal(0.0, 3.0, (300, 70))
        got = normal_cdf(NormalApprox(mean=0.0, variance=1.0), a)
        assert got.shape == a.shape
        assert np.array_equal(got, ndtr(a))


class TestSupDistanceToNormal:
    def test_dim_one_closed_form(self):
        # The gap is largest at the left support edge, where the exact CDF
        # is 0 while the normal already has mass Phi(-sqrt(2)) = erfc(1)/2.
        assert sup_distance_to_normal(1) == pytest.approx(math.erfc(1.0) / 2, abs=1e-9)

    def test_dim_16_pin(self):
        # Frozen from a 2e6-point reference grid.
        assert sup_distance_to_normal(16) == pytest.approx(0.0096927393, abs=1e-7)

    def test_decreases_with_dimension(self):
        d = [sup_distance_to_normal(n) for n in (1, 4, 9, 25)]
        assert all(a > b for a, b in zip(d, d[1:]))

    def test_requires_exact_backend(self):
        with pytest.raises(UnsupportedDimensionError):
            sup_distance_to_normal(EXACT_DENSITY_MAX_DIM + 1)

    def test_gap_tends_to_the_edgeworth_constant(self):
        # The one-term Edgeworth expansion of a sum of n terms with skewness
        # gamma_1 is F_n(x) = Phi(x) - gamma_1 / (6 sqrt(n)) (x^2 - 1) phi(x)
        # + O(1/n) (Feller, vol. II, XVI.4; Petrov 1975, ch. VI), so
        # sqrt(n) * sup |F_n - Phi| tends to gamma_1 * phi(0) / 6, where
        # gamma_1 = 2 sqrt(2) / 5 is the skewness of one |u - v|. Here it
        # falls toward that constant from above.
        limit = 2 * math.sqrt(2) / 5 / math.sqrt(2 * math.pi) / 6
        assert limit == pytest.approx(0.0376126, abs=1e-7)
        scaled = []
        for n in (5, 10, 30, 60, 100):
            xs = np.linspace(0.0, float(n), 20001)
            gap = closed_form_density(n).cdf(xs) - normal_cdf(NormalApprox.for_dim(n), xs)
            scaled.append(math.sqrt(n) * float(np.max(np.abs(gap))))
        # Measured 0.041409, 0.039476, 0.038228, 0.037920 and 0.037797.
        assert all(a > b for a, b in zip(scaled, scaled[1:])), scaled
        assert scaled[-1] > limit and scaled[-1] < 1.01 * limit, scaled


@pytest.mark.slow
class TestMonteCarloValidation:
    """10^7-sample validation of the exact engine, including its ceiling."""

    def _ks_against_exact(self, dim):
        from l1cube import EmpiricalCdf, SampleSpec, ks_statistic, sample_distances

        spec = SampleSpec(dim=dim, num_pairs=10_000_000, seed=2024)
        ecdf = EmpiricalCdf.from_values(sample_distances(spec, workers=4))
        return ks_statistic(ecdf, exact_density(dim).cdf)

    def test_dim_five(self):
        assert self._ks_against_exact(5) < 0.0006

    def test_dim_thirty_conditioning(self):
        # At the ceiling the float64 projection must still beat the 0.01
        # critical value; this is the guard against coefficient blowup.
        assert self._ks_against_exact(30) < 1.628 / math.sqrt(10_000_000)
