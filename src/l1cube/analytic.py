"""Closed-form moments, the exact distance density, and its normal limit.

The distance in n dimensions is a sum of n independent copies of |X - Y|
with X, Y uniform on [0, 1]; each summand has the triangular density
2(1 - z) on [0, 1]. Its mean is 1/3 and its variance 1/18, so the sum has
mean n/3 and variance n/18, and by the central limit theorem the sum's
distribution approaches N(n/3, n/18) as n grows.

The exact density of the sum comes from its closed form, an Irwin-Hall
style inclusion-exclusion (Hall 1927 derives it for sums of uniforms): the
summand's Laplace transform 2(s - 1 + e^{-s})/s^2, raised to the n-th power
and expanded, inverts term by term to

    f_n(x) = 2^n sum_j sum_i C(n,j) C(n-j,i) (-1)^(n-j-i) (x-j)_+^e / e!,
    e = 2n - 1 - i.

It is held as a piecewise polynomial: one unit-width segment per integer
interval, coefficients in the local variable t = x - k, stored as integers
over one common denominator. Exact rationals make every moment integral
exact; each float64 coefficient is one correctly rounded integer division,
cached for fast pointwise evaluation, which stays accurate because each
segment is evaluated by Horner's rule at t in [0, 1] rather than through
globally huge powers of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.special import ndtr

__all__ = [
    "EXACT_DENSITY_MAX_DIM", "UnsupportedDimensionError", "theoretical_mean",
    "theoretical_variance", "theoretical_skewness", "theoretical_excess_kurtosis",
    "TheoreticalMoments", "PiecewisePolynomial", "exact_density", "moments_of",
    "NormalApprox", "normal_pdf", "normal_cdf", "sup_distance_to_normal",
]

# Ceiling for the exact density. The closed form itself holds at any
# dimension, and its float64 CDF stays within 1.2e-16 of the exact one up to
# at least dim 100. The ceiling stays because a sweep's rows above it would
# switch from the normal approximation alone to an exact KS test: an output
# change meant to land on its own, with its golden re-pinned for that one
# cause. Callers report which backend answered.
EXACT_DENSITY_MAX_DIM = 30

_SQRT2PI = math.sqrt(2.0 * math.pi)


class UnsupportedDimensionError(ValueError):
    """The exact-density engine was asked for a dimension above its ceiling."""


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _check_dim(dim: int) -> None:
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")


def theoretical_mean(dim: int) -> float:
    """Expected distance in `dim` dimensions: dim/3."""
    _check_dim(dim)
    return dim / 3.0


def theoretical_variance(dim: int) -> float:
    """Variance of the distance in `dim` dimensions: dim/18."""
    _check_dim(dim)
    return dim / 18.0


def theoretical_skewness(dim: int) -> float:
    """Skewness (2*sqrt(2)/5)/sqrt(dim), from cumulant additivity over i.i.d. summands."""
    _check_dim(dim)
    return (2.0 * math.sqrt(2.0) / 5.0) / math.sqrt(dim)


def theoretical_excess_kurtosis(dim: int) -> float:
    """Excess kurtosis -3/(5*dim), from cumulant additivity over i.i.d. summands."""
    _check_dim(dim)
    return -3.0 / (5.0 * dim)


@dataclass(frozen=True)
class TheoreticalMoments:
    """First four standardized moments of the distance distribution."""

    dim: int
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float

    @classmethod
    def for_dim(cls, dim: int) -> "TheoreticalMoments":
        return cls(
            dim=int(dim),
            mean=theoretical_mean(dim),
            variance=theoretical_variance(dim),
            skewness=theoretical_skewness(dim),
            excess_kurtosis=theoretical_excess_kurtosis(dim),
        )


# ---------------------------------------------------------------------------
# Exact piecewise-polynomial density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial density on consecutive unit intervals [k, k+1], k = 0..m-1.

    Representation: `numerators[k]` holds the coefficients of segment k in
    the local variable t = x - k, ascending powers, as integers over the
    common `denominator`; all rows have the same length. The breakpoints are
    therefore the integers 0..m. The last segment is closed at its right
    endpoint; the function is 0 outside [0, m].
    """

    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    @cached_property
    def segments(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact rational coefficients per segment, built on first use."""
        d = self.denominator
        return tuple(tuple(Fraction(c, d) for c in row) for row in self.numerators)

    @property
    def dim(self) -> int:
        return len(self.numerators)

    # -- float projections, cached for evaluation ---------------------------

    @cached_property
    def _pdf_coeffs(self) -> np.ndarray:
        d = self.denominator
        return np.array([[c / d for c in row] for row in self.numerators])

    @cached_property
    def _cdf_coeffs(self) -> np.ndarray:
        # Antiderivative per segment, over denominator * lcm(1..width) so that
        # every coefficient stays an integer; the constant term is the exact
        # cumulative mass.
        lcm = math.lcm(*range(1, len(self.numerators[0]) + 1))
        d = self.denominator * lcm
        rows, cum = [], 0
        for row in self.numerators:
            anti = [c * lcm // (i + 1) for i, c in enumerate(row)]
            rows.append([cum / d] + [c / d for c in anti])
            cum += sum(anti)
        return np.array(rows)

    def _eval(self, coeff_mat: np.ndarray, x, fill_low: float, fill_high: float):
        xa = np.asarray(x, dtype=np.float64)
        scalar = np.isscalar(x) or xa.ndim == 0
        xv = xa.ravel()
        # Sorted input (what ks_statistic passes) is evaluated as given; other
        # input is sorted first and its values scattered back, so no copy is
        # made on the common path. NaN fails the sortedness test and argsort
        # puts it last.
        order = None
        if not np.all(xv[:-1] <= xv[1:]):
            order = np.argsort(xv)
            xv = xv[order]
        # Segment k holds the run of points in [k, k+1); points below 1 fall
        # in segment 0 and points from dim - 1 up in the last one, as
        # clip(floor(x), 0, dim - 1) would place them.
        edges = [0, *np.searchsorted(xv, np.arange(1, self.dim)).tolist(), xv.size]
        res = np.empty_like(xv)
        for k, row in enumerate(coeff_mat):
            lo, hi = edges[k], edges[k + 1]
            if lo == hi:
                continue
            t = xv[lo:hi] - k
            run = res[lo:hi]
            run.fill(row[-1])
            for c in row[-2::-1]:  # Horner with scalar coefficients
                run *= t
                run += c
        res[xv < 0.0] = fill_low
        res[xv > self.dim] = fill_high
        if order is not None:
            unsorted = np.empty_like(res)
            unsorted[order] = res
            res = unsorted
        if scalar:
            return float(res[0])
        return res.reshape(xa.shape)

    def pdf(self, x):
        """Density value(s) at x; 0 outside the support."""
        return self._eval(self._pdf_coeffs, x, 0.0, 0.0)

    def cdf(self, x):
        """Cumulative distribution at x; exactly 0 below 0 and 1 above dim."""
        out = self._eval(self._cdf_coeffs, x, 0.0, 1.0)
        return float(np.clip(out, 0.0, 1.0)) if isinstance(out, float) else np.clip(out, 0.0, 1.0)

    # -- exact integrals -----------------------------------------------------

    def moment(self, order: int, center: Fraction = Fraction(0)) -> Fraction:
        """Exact integral of (x - center)^order against the density.

        With center = p/q, on segment k the factor is (kq - p + qt)^order
        / q^order. Expanded binomially, multiplied into the integer row and
        integrated over t in [0, 1], every term is an integer over
        denominator * lcm(1..width + order) * q^order.
        """
        center = Fraction(center)
        p, q = center.numerator, center.denominator
        width = len(self.numerators[0]) + order
        lcm = math.lcm(*range(1, width + 1))
        weights = [lcm // (j + 1) for j in range(width)]
        total = 0
        for k, row in enumerate(self.numerators):
            a = k * q - p
            for m in range(order + 1):
                b = math.comb(order, m) * a ** (order - m) * q**m
                if b:
                    total += b * sum(c * w for c, w in zip(row, weights[m:]))
        return Fraction(total, self.denominator * lcm * q**order)


def _closed_form_density(n: int) -> PiecewisePolynomial:
    """The closed-form density of the distance in n dimensions, any n >= 1.

    On segment k the terms j <= k of the closed form are live, so segment k
    is segment k-1 shifted by one unit plus the j = k terms. Coefficients
    are integers over (2n - 1)!.
    """
    top = 2 * n - 1
    scale = math.factorial(top)
    row = [0] * (top + 1)
    rows = []
    for k in range(n):
        if k:  # Taylor shift p(t) -> p(t + 1): suffix sums, one pass per degree
            for i in range(top):
                row[i:] = list(accumulate(reversed(row[i:])))[::-1]
        ck = math.comb(n, k)
        for i in range(n - k + 1):
            e = top - i
            term = ck * math.comb(n - k, i) * (scale // math.factorial(e))
            row[e] += -term if (n - k - i) % 2 else term
        rows.append(tuple(c << n for c in row))
    return PiecewisePolynomial(tuple(rows), scale)


_density_cache: dict[int, PiecewisePolynomial] = {}


def exact_density(dim: int) -> PiecewisePolynomial:
    """Exact density of the distance in `dim` dimensions.

    dim = 1 is the triangular density; every dimension is built directly
    from the closed form in the module docstring. Results are cached
    (instances are immutable and shared).

    Raises UnsupportedDimensionError above EXACT_DENSITY_MAX_DIM.
    """
    _check_dim(dim)
    if dim > EXACT_DENSITY_MAX_DIM:
        raise UnsupportedDimensionError(
            f"exact density supports dim <= {EXACT_DENSITY_MAX_DIM}, got {dim}; "
            "use the normal approximation instead"
        )
    dim = int(dim)
    if dim not in _density_cache:
        # Threads racing here may each build, but setdefault keeps the first.
        _density_cache.setdefault(dim, _closed_form_density(dim))
    return _density_cache[dim]


def moments_of(density: PiecewisePolynomial) -> TheoreticalMoments:
    """Mean, variance, skewness and excess kurtosis by exact integration.

    Central moments are integrated in rational arithmetic around the exact
    mean, so the only rounding is the final conversion to float.
    """
    mean = density.moment(1)
    mu2 = density.moment(2, center=mean)
    mu3 = density.moment(3, center=mean)
    mu4 = density.moment(4, center=mean)
    var = float(mu2)
    return TheoreticalMoments(
        dim=density.dim,
        mean=float(mean),
        variance=var,
        skewness=float(mu3) / var**1.5,
        excess_kurtosis=float(mu4) / var**2 - 3.0,
    )


# ---------------------------------------------------------------------------
# Normal approximation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalApprox:
    """Gaussian limit of the distance distribution: N(dim/3, dim/18)."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @classmethod
    def for_dim(cls, dim: int) -> "NormalApprox":
        return cls(mean=theoretical_mean(dim), variance=theoretical_variance(dim))


def normal_pdf(approx: NormalApprox, x):
    """Gaussian density with the approximation's parameters (scalar or array)."""
    xa = np.asarray(x, dtype=np.float64)
    z = (xa - approx.mean) / approx.sigma
    out = np.exp(-0.5 * z * z) / (_SQRT2PI * approx.sigma)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def normal_cdf(approx: NormalApprox, x):
    """Gaussian CDF with the approximation's parameters (scalar or array).

    Evaluated through `scipy.special.ndtr`.
    """
    xa = np.asarray(x, dtype=np.float64)
    out = ndtr((xa - approx.mean) / approx.sigma)
    if np.isscalar(x) or xa.ndim == 0:
        return float(out)
    return out


def sup_distance_to_normal(dim: int) -> float:
    """Sup-norm gap between the exact CDF and its normal approximation.

    Taken over a 20,001-point grid on [0, dim]. Quantifies the central-limit
    convergence rate; decreases like 1/sqrt(dim). Requires the exact backend,
    so dim must be within its ceiling.
    """
    density = exact_density(dim)
    approx = NormalApprox.for_dim(dim)
    xs = np.linspace(0.0, float(dim), 20001)
    return float(np.max(np.abs(density.cdf(xs) - normal_cdf(approx, xs))))
