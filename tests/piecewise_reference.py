"""Piecewise-polynomial values segment by segment, as an oracle.

`PiecewisePolynomial.pdf` and `.cdf` run one Horner pass over all the
points in range, each point's coefficient repeated from its segment's.
`per_segment_eval` is the evaluation it replaced: sorted points are split
into runs at the integer knots, and each segment's run goes through its
own Horner loop (multiply, then add, highest power first, as Cephes'
polevl runs it). The outer runs are filled by slice: 0 below 0,
`fill_high` above `dim`, NaN for NaN. As in the program, the density is
clipped at 0 and the CDF to [0, 1]. The program must return the same
doubles, so tests compare the two bit for bit.
"""

import numpy as np


def _polevl(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def per_segment_eval(coeff_mat: np.ndarray, dim: int, x, fill_high: float) -> np.ndarray:
    """Values at the 1-D float64 `x` of the polynomial with segment rows `coeff_mat`."""
    xv = np.asarray(x, dtype=np.float64)
    order = None
    if not np.all(xv[:-1] <= xv[1:]):
        order = np.argsort(xv)
        xv = xv[order]
    edges = [*np.searchsorted(xv, np.arange(dim)).tolist(),
             *np.searchsorted(xv, [dim, np.inf], side="right").tolist()]
    res = np.empty_like(xv)
    res[:edges[0]] = 0.0
    res[edges[-2]:edges[-1]] = fill_high
    res[edges[-1]:] = np.nan
    for k, row in enumerate(coeff_mat):
        lo, hi = edges[k], edges[k + 1]
        if lo < hi:
            res[lo:hi] = _polevl(xv[lo:hi] - k, row[::-1])
    if order is not None:
        unsorted = np.empty_like(res)
        unsorted[order] = res
        res = unsorted
    return res


def pdf(density, x) -> np.ndarray:
    return np.maximum(per_segment_eval(density._pdf_coeffs, density.dim, x, 0.0), 0.0)


def cdf(density, x) -> np.ndarray:
    return np.clip(per_segment_eval(density._cdf_coeffs, density.dim, x, 1.0), 0.0, 1.0)
