"""Closed-form moments, the exact distance density, and its normal limit.

The distance in n dimensions is a sum of n independent copies of |X - Y|
with X, Y uniform on [0, 1]; each summand has the triangular density
2(1 - z) on [0, 1]. Its mean is 1/3 and its variance 1/18, so the sum has
mean n/3 and variance n/18, and by the central limit theorem the sum's
distribution approaches N(n/3, n/18) as n grows.

The exact density of the sum is the n-fold convolution of the triangle.
Every dimension is built from the one below it in one step,
f_{n+1} = f_n * 2(1 - z), in exact integers, starting at f_1 = 2(1 - z).
The same density has a closed form, an Irwin-Hall style
inclusion-exclusion (Hall 1927 derives it for sums of uniforms): the
summand's Laplace transform 2(s - 1 + e^{-s})/s^2, raised to the n-th power
and expanded, inverts term by term to

    f_n(x) = 2^n sum_j sum_i C(n,j) C(n-j,i) (-1)^(n-j-i) (x-j)_+^e / e!,
    e = 2n - 1 - i.

The package does not evaluate it; the tests build it as an independent
oracle and check that it gives the same integers as the step.

It is held as a piecewise polynomial: one unit-width segment per integer
interval, coefficients in the local variable t = x - k, stored as integers
over one common denominator. Exact rationals make every moment integral
exact; each float64 coefficient is one correctly rounded integer division,
cached for fast pointwise evaluation, which stays accurate because each
segment is evaluated by Horner's rule at t in [0, 1] rather than through
globally huge powers of x.

`_reference_laws(dim)` names the laws a sample is checked against: the exact
density up to `EXACT_DENSITY_MAX_DIM`, and its normal limit at every dim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable

import numpy as np

from .estimation import _grid, _is_sorted
from .sampling import _integer

__all__ = [
    "EXACT_DENSITY_MAX_DIM", "UnsupportedDimensionError", "theoretical_mean",
    "theoretical_variance", "theoretical_skewness", "theoretical_excess_kurtosis",
    "TheoreticalMoments", "PiecewisePolynomial", "exact_density", "moments_of",
    "NormalApprox", "normal_cdf", "sup_distance_to_normal",
]

# Ceiling for the exact density. The step holds at any dimension, and the
# float64 CDF stays within 1.2e-16 of the exact one up to at least dim 100.
# The ceiling stays because a sweep's rows above it would switch from the
# normal approximation alone to an exact KS test: an output change meant to
# land on its own, with its golden re-pinned for that one cause. Besides
# `exact_density`, only `_reference_laws` reads it, to choose a row's laws.
EXACT_DENSITY_MAX_DIM = 30

_SQRT2PI = math.sqrt(2.0 * math.pi)
# Points per block of every reference curve's evaluation: `_elementwise`, the
# one block loop, hands a curve at most this many points at a time, so its
# temporaries stay the same size at any input length and in any input order.
_EVAL_BLOCK = 1 << 14


class UnsupportedDimensionError(ValueError):
    """The exact-density engine was asked for a dimension above its ceiling."""


def _elementwise(f, x):
    """Apply `f(xv, out)`, which writes its values at the 1-D float64 `xv` into `out`, to x.

    The one scalar/array dispatch and the one block loop of every reference
    curve: the output is allocated once, and `f` is handed at most
    `_EVAL_BLOCK` points at a time. A scalar or 0-d x gives a float, any
    other x an array of its shape.
    """
    xa = np.asarray(x, dtype=np.float64)
    xv = xa.ravel()
    out = np.empty_like(xv)
    for lo in range(0, xv.size, _EVAL_BLOCK):
        f(xv[lo:lo + _EVAL_BLOCK], out[lo:lo + _EVAL_BLOCK])
    out = out.reshape(xa.shape)
    return float(out) if xa.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def theoretical_mean(dim: int) -> float:
    """Expected distance in `dim` dimensions: dim/3."""
    dim = _integer("dim", dim, 1)
    return dim / 3.0


def theoretical_variance(dim: int) -> float:
    """Variance of the distance in `dim` dimensions: dim/18."""
    dim = _integer("dim", dim, 1)
    return dim / 18.0


def theoretical_skewness(dim: int) -> float:
    """Skewness (2*sqrt(2)/5)/sqrt(dim), from cumulant additivity over i.i.d. summands."""
    dim = _integer("dim", dim, 1)
    return (2.0 * math.sqrt(2.0) / 5.0) / math.sqrt(dim)


def theoretical_excess_kurtosis(dim: int) -> float:
    """Excess kurtosis -3/(5*dim), from cumulant additivity over i.i.d. summands."""
    dim = _integer("dim", dim, 1)
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
        # Antiderivative per segment: coefficient i + 1 is numerator i over
        # denominator * (i + 1), one correctly rounded division. The constant
        # term is the exact cumulative mass, an integer over denominator *
        # lcm(1..width).
        width = len(self.numerators[0])
        lcm = math.lcm(*range(1, width + 1))
        weights = [lcm // (i + 1) for i in range(width)]
        dens = [self.denominator * (i + 1) for i in range(width)]
        d = self.denominator * lcm
        rows, cum = [], 0
        for row in self.numerators:
            rows.append([cum / d] + [c / di for c, di in zip(row, dens)])
            cum += sum(map(mul, row, weights))
        return np.array(rows)

    def _eval(self, coeff_mat: np.ndarray, xv: np.ndarray, res: np.ndarray, fill_high: float) -> None:
        # One block of points into `res`. Sorted input (what ks_statistic
        # passes) is used as given, with no copy; other input is sorted, then
        # scattered back. NaN fails the sortedness test and argsort puts it last.
        order = None
        if not _is_sorted(xv):
            order = np.argsort(xv)
            xv = xv[order]
        # The sorted points fall into consecutive runs: below 0, segment k's
        # [k, k+1) for k = 0..dim-1 (the last closed at dim), above dim, NaN.
        # Only the segment runs reach Horner's rule.
        edges = np.append(np.searchsorted(xv, np.arange(self.dim)),
                          np.searchsorted(xv, [self.dim, np.inf], side="right"))
        lo, hi, nan_from = int(edges[0]), int(edges[-2]), int(edges[-1])
        out = res if order is None else np.empty_like(xv)
        out[:lo] = 0.0
        out[hi:nan_from] = fill_high
        out[nan_from:] = np.nan
        # One Horner pass, each point's coefficients repeated from its
        # segment's over the run.
        runs = np.diff(edges[:-1])
        t = xv[lo:hi] - np.arange(self.dim, dtype=np.float64).repeat(runs)
        out[lo:hi] = _polevl(t, (c.repeat(runs) for c in coeff_mat.T[::-1]))
        if order is not None:
            res[order] = out

    def pdf(self, x):
        """Density at x, >= 0: float for scalar x, else x's shape; NaN at NaN, 0 off [0, dim]."""
        def density(xv, out):
            self._eval(self._pdf_coeffs, xv, out, 0.0)
            np.maximum(out, 0.0, out=out)
        return _elementwise(density, x)

    def cdf(self, x):
        """CDF at x: float for scalar x, else x's shape; NaN at NaN, 0 below 0, 1 above dim."""
        def unit(xv, out):
            self._eval(self._cdf_coeffs, xv, out, 1.0)
            np.clip(out, 0.0, 1.0, out=out)
        return _elementwise(unit, x)

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


def _next_density(prev: PiecewisePolynomial) -> PiecewisePolynomial:
    """The density in n + 1 dimensions from `prev`, the density in n.

    f_{n+1}(x) is the integral of f_n(x - z) 2(1 - z) over z in [0, 1], so
    f_{n+1}'' = 2 (f_n' - f_n + f_n(. - 1)). On segment k, with p and q the
    rows of segments k and k - 1 of f_n (zero past its ends), coefficient
    m >= 2 is therefore 2 [p_(m-1)/m - (p_(m-2) - q_(m-2))/(m(m-1))].
    Coefficients 0 and 1 come from continuity: f_{n+1} starts at 0 with slope
    2 f_n(0+) = 2 p_0, and is C^1 away from 0 (f_1 jumps only there), so each
    later segment starts at the value and slope where the one before it ends.
    Over the new denominator (2n + 1)! every coefficient is an integer, so
    every division below is exact.
    """
    n = prev.dim
    grow = 4 * n * (2 * n + 1)  # 2 (2n + 1)! / (2n - 1)!
    zero = (0,) * (2 * n)
    value, slope = 0, grow * prev.numerators[0][0]
    rows = []
    for p, q in zip(prev.numerators + (zero,), (zero,) + prev.numerators):
        row = [value, slope]
        for m, (a, b, c) in enumerate(zip(p[1:] + (0,), p, q), start=2):
            row.append(grow * ((m - 1) * a - b + c) // (m * (m - 1)))
        rows.append(tuple(row))
        value, slope = sum(row), sum(m * c for m, c in enumerate(row))
    return PiecewisePolynomial(tuple(rows), prev.denominator * 2 * n * (2 * n + 1))


# The density in one dimension: the triangle 2(1 - t) on [0, 1].
_TRIANGLE = PiecewisePolynomial(((2, -2),), 1)
_density_cache: dict[int, PiecewisePolynomial] = {}


def exact_density(dim: int) -> PiecewisePolynomial:
    """Exact density of the distance in `dim` dimensions.

    dim = 1 is the triangular density. Any other dimension is stepped up
    from the highest cached dimension below it, or from the triangle, one
    convolution step at a time, and every dimension passed is cached
    (instances are immutable and shared).

    Raises UnsupportedDimensionError above EXACT_DENSITY_MAX_DIM.
    """
    dim = _integer("dim", dim, 1)
    if dim > EXACT_DENSITY_MAX_DIM:
        raise UnsupportedDimensionError(
            f"exact density supports dim <= {EXACT_DENSITY_MAX_DIM}, got {dim}; "
            "use the normal approximation instead"
        )
    start = dim
    while start > 1 and start not in _density_cache:
        start -= 1
    density = _density_cache.get(start, _TRIANGLE)
    for n in range(start + 1, dim + 1):
        # Threads racing here may each build, but setdefault keeps the first.
        density = _density_cache.setdefault(n, _next_density(density))
    return density


def moments_of(density: PiecewisePolynomial) -> TheoreticalMoments:
    """Mean, variance, skewness and excess kurtosis by exact integration.

    Central moments are integrated in rational arithmetic around the exact
    mean. Each result is rounded once, at its conversion to float, except the
    skewness: its square mu3^2 / mu2^3 is rounded, then its square root.
    """
    mean = density.moment(1)
    mu2 = density.moment(2, center=mean)
    mu3 = density.moment(3, center=mean)
    mu4 = density.moment(4, center=mean)
    return TheoreticalMoments(
        dim=density.dim,
        mean=float(mean),
        variance=float(mu2),
        skewness=math.copysign(math.sqrt(mu3**2 / mu2**3), mu3),
        excess_kurtosis=float(mu4 / mu2**2 - 3),
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
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError(f"mean and variance must be finite, got {self.mean} and {self.variance}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.variance)

    @classmethod
    def for_dim(cls, dim: int) -> "NormalApprox":
        return cls(mean=theoretical_mean(dim), variance=theoretical_variance(dim))

    def pdf(self, x):
        """Normal density at x: float for scalar x, else x's shape; NaN at NaN, 0 at +-inf."""
        def pdf(xv, out):
            with np.errstate(over="ignore"):  # an overflow is +-inf, where the density is 0
                z = (xv - self.mean) / self.sigma
                np.divide(np.exp(-0.5 * z**2), _SQRT2PI * self.sigma, out=out)
        return _elementwise(pdf, x)

    def cdf(self, x):
        """Normal CDF at x: float for scalar x, else x's shape; NaN at NaN, 0 at -inf, 1 at +inf.

        The standard normal CDF is Cephes `ndtr` (see `_ndtr`), bit for bit as
        scipy.special.ndtr computes it, with `exp` from the C library (libm).
        """
        def cdf(xv, out):
            with np.errstate(over="ignore"):  # an overflow is +-inf, where the CDF is 0 or 1
                z = (xv - self.mean) / self.sigma
            _ndtr(z, out)
        return _elementwise(cdf, x)


def normal_cdf(approx: NormalApprox, x):
    """`approx.cdf(x)`, kept as a free function for existing callers."""
    return approx.cdf(x)


def _reference_laws(dim: int) -> dict:
    """Name to law (with pdf and cdf), in the order of the ks_<name> and <name>_pdf columns."""
    laws = {"exact": exact_density(dim)} if dim <= EXACT_DENSITY_MAX_DIM else {}
    laws["normal"] = NormalApprox.for_dim(dim)
    return laws


# Cephes ndtr (Moshier, Methods and Programs for Mathematical Functions,
# 1989), after Cody's rational approximations of erf and erfc (Math. Comp.
# 23, 1969). Coefficients lead with the highest power; a leading 1.0 is
# Cephes' implicit one (p1evl).
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285307350E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX): exp(-x^2) underflows beyond it
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: np.ndarray, coeffs: Iterable) -> np.ndarray:
    """Horner's rule as Cephes runs it: multiply, then add, highest power first.

    Each coefficient is a scalar, or an array of one value per point. An
    array is let go before the next coefficient is drawn, so a generator of
    them holds one at a time.
    """
    coeffs = iter(coeffs)
    out = np.full_like(x, next(coeffs))
    for c in coeffs:
        out *= x
        out += c
        del c
    return out


def _ndtr(a: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Standard normal CDF of the 1-D float64 `a`, as scipy.special.ndtr gives it, into `res`.

    Each branch and operation follows Cephes, so every value equals scipy's
    bit for bit. `exp` is libm's through `math.exp`; numpy's own `exp`
    rounds some points differently, depending on its SIMD dispatch.
    """
    x = a * _SQRT1_2
    with np.errstate(over="ignore"):  # z = inf only where the CDF is 0 or 1
        z = x * x
    ax = np.abs(x)
    res[...] = x > 0.0  # where erfc underflows to 0, the CDF is 0 or 1
    near = ax < 1.0  # 0.5 + 0.5 * erf(x)
    xn, zn = x[near], z[near]
    res[near] = 0.5 + 0.5 * (xn * _polevl(zn, _NDTR_T) / _polevl(zn, _NDTR_U))
    # 0.5 * erfc(|x|), flipped for x > 0
    for tail, num, den in (((ax >= 1.0) & (ax < 8.0), _NDTR_P, _NDTR_Q),
                           ((ax >= 8.0) & (z <= _MAXLOG), _NDTR_R, _NDTR_S)):
        at = ax[tail]
        e = np.fromiter(map(math.exp, (-z[tail]).tolist()), np.float64, at.size)
        y = 0.5 * (e * _polevl(at, num) / _polevl(at, den))
        res[tail] = np.where(x[tail] > 0.0, 1.0 - y, y)
    res[np.isnan(x)] = np.nan
    return res


def sup_distance_to_normal(dim: int) -> float:
    """Sup-norm gap between the exact CDF and its normal approximation.

    Taken over a 20,001-point grid on [0, dim]. Quantifies the central-limit
    convergence rate; decreases like 1/sqrt(dim). Requires the exact backend,
    so dim must be within its ceiling.
    """
    density = exact_density(dim)
    approx = NormalApprox.for_dim(dim)
    xs = _grid(0.0, float(dim), 20001)
    return float(np.max(np.abs(density.cdf(xs) - approx.cdf(xs))))
