"""The exact distance density by iterated rational convolution, as an oracle.

l1cube builds the density of the n-dimensional distance one dimension at a
time, each step a convolution done on integer coefficients over one common
denominator. This module builds the same density the slow, independent
way: start from the triangular density 2 - 2t of one coordinate and
convolve with it n - 1 times, in exact `Fraction` arithmetic on unit-width
segments with coefficients in the local variable t = x - k.
`float_projection` rounds the segments to the float64 pdf and cdf
coefficient matrices the way the package's evaluation expects them, one
`float(Fraction)` per coefficient, so the program's matrices can be
compared to it with `np.array_equal`.
`segments_of` reads a `PiecewisePolynomial`'s integer rows as such
segments, one `Fraction(numerator, denominator)` per coefficient.
`fraction_moment` integrates moments of exact segments the same slow way,
one `Fraction` product per coefficient, as the oracle for the program's
integer `PiecewisePolynomial.moment`. `gather_eval` evaluates a coefficient
matrix point by point, gathering each point's segment row, as the oracle
for the program's per-segment evaluation.
"""

import math
from fractions import Fraction

import numpy as np

# Triangular density of |X - Y|: 2 - 2t on [0, 1).
TRIANGLE = (Fraction(2), Fraction(-2))


def integrate(coeffs):
    """Antiderivative with zero constant term."""
    return (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(coeffs))


def mul_linear_shift(coeffs, k: int):
    """(k + t) * p(t) for the segment starting at integer k."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] += k * c
        out[i + 1] += c
    return tuple(out)


def convolve_with_triangle(segments):
    """Convolve a unit-segment piecewise density on [0, m] with 2 - 2z on [0, 1].

    Writing the triangular factor as (2 - 2x) + 2y inside the convolution
    integral reduces each output segment to differences of the running
    antiderivatives F = int f and G = int y f(y) dy, evaluated at x and
    x - 1. Unit-width integer segments keep those evaluations aligned with
    segment-local coordinates, so no polynomial recentering is ever needed.
    """
    m = len(segments)
    int_f = [integrate(p) for p in segments]
    int_yf = [integrate(mul_linear_shift(p, k)) for k, p in enumerate(segments)]
    # Running totals at the integer breakpoints.
    cum_f = [Fraction(0)]
    cum_yf = [Fraction(0)]
    for k in range(m):
        cum_f.append(cum_f[-1] + sum(int_f[k]))
        cum_yf.append(cum_yf[-1] + sum(int_yf[k]))

    max_len = max(len(p) for p in segments) + 2
    out = []
    for j in range(m + 1):
        f_diff = [Fraction(0)] * max_len
        yf_diff = [Fraction(0)] * max_len
        if j < m:  # F(x) on segment j; at j = m the upper limit saturates at m
            f_diff[0] += cum_f[j]
            yf_diff[0] += cum_yf[j]
            for i, c in enumerate(int_f[j]):
                f_diff[i] += c
            for i, c in enumerate(int_yf[j]):
                yf_diff[i] += c
        else:
            f_diff[0] += cum_f[m]
            yf_diff[0] += cum_yf[m]
        if j >= 1:  # minus F(x - 1) on segment j - 1; at j = 0 the lower limit is 0
            f_diff[0] -= cum_f[j - 1]
            yf_diff[0] -= cum_yf[j - 1]
            for i, c in enumerate(int_f[j - 1]):
                f_diff[i] -= c
            for i, c in enumerate(int_yf[j - 1]):
                yf_diff[i] -= c
        # h_j(t) = (2 - 2j - 2t) * f_diff + 2 * yf_diff
        h = [Fraction(0)] * max_len
        const = Fraction(2 - 2 * j)
        for i in range(max_len):
            fi = f_diff[i]
            if fi:
                h[i] += const * fi
                if i + 1 < max_len:
                    h[i + 1] -= 2 * fi
            yi = yf_diff[i]
            if yi:
                h[i] += 2 * yi
        while len(h) > 1 and h[-1] == 0:
            h.pop()
        out.append(tuple(h))
    return tuple(out)


def convolution_chain(max_dim: int) -> dict:
    """Segments of the density for every dim 1..max_dim, keyed by dim."""
    chain = {1: (TRIANGLE,)}
    for n in range(2, max_dim + 1):
        chain[n] = convolve_with_triangle(chain[n - 1])
    return chain


def segments_of(density) -> tuple:
    """Exact rational coefficients per segment of a `PiecewisePolynomial`."""
    d = density.denominator
    return tuple(tuple(Fraction(c, d) for c in row) for row in density.numerators)


def float_projection(segments) -> tuple[np.ndarray, np.ndarray]:
    """float64 pdf and cdf coefficient matrices of exact segments.

    The cdf row of segment k is its antiderivative with the exact
    cumulative mass up to k as constant term.
    """
    width = max(len(p) for p in segments)
    pdf = np.zeros((len(segments), width))
    cdf = np.zeros((len(segments), width + 1))
    cum = Fraction(0)
    for k, p in enumerate(segments):
        pdf[k, : len(p)] = [float(c) for c in p]
        anti = integrate(p)
        cdf[k, 0] = float(cum)
        cdf[k, 1 : len(anti)] = [float(c) for c in anti[1:]]
        cum += sum(anti)
    return pdf, cdf


def fraction_moment(segments, order: int, center=Fraction(0)) -> Fraction:
    """Exact integral of (x - center)^order against unit-segment densities."""
    total = Fraction(0)
    for k, p in enumerate(segments):
        a = Fraction(k) - center
        # (a + t)^order expanded binomially, multiplied into p, integrated.
        binom = [math.comb(order, i) * a ** (order - i) for i in range(order + 1)]
        prod = [Fraction(0)] * (len(p) + order)
        for i, bi in enumerate(binom):
            if bi:
                for j, cj in enumerate(p):
                    prod[i + j] += bi * cj
        total += sum(c / (i + 1) for i, c in enumerate(prod))
    return total


def gather_eval(coeff_mat, dim: int, x, fill_low: float, fill_high: float):
    """Piecewise-polynomial values by per-point coefficient gather.

    The evaluation the package used before it went segment by segment:
    each point's segment index clip(floor(x), 0, dim - 1), then Horner's
    rule with each coefficient gathered per point, starting from 0. Kept
    as the oracle the per-segment evaluator must equal bit for bit.
    """
    xa = np.asarray(x, dtype=np.float64)
    scalar = np.isscalar(x) or xa.ndim == 0
    xv = np.atleast_1d(xa)
    with np.errstate(invalid="ignore"):
        seg = np.clip(np.floor(xv).astype(np.int64), 0, dim - 1)
        t = xv - seg
        res = np.zeros_like(xv)
        for c in coeff_mat.T[::-1]:
            res = res * t + c[seg]
    res = np.where(xv < 0.0, fill_low, np.where(xv > dim, fill_high, res))
    if scalar:
        return float(res[0])
    return res.reshape(xa.shape)
