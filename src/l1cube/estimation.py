"""Streaming moments, histograms, empirical CDFs and KS statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metric import span_sum
from .sampling import _boolean, _integer

__all__ = [
    "ks_critical_value", "MomentSummary", "summarize", "Histogram", "build_histogram",
    "EmpiricalCdf", "ks_statistic",
]

_BLOCK = 1 << 16

# Sorted points per block of the bracketed KS evaluation: the largest power
# of two at most N / _KS_BLOCKS, kept between _KS_MIN_STRIDE and _KS_STRIDE,
# so 16 below N = 2^14 and 256 from N = 2^17 up. A block's first point
# bounds F over the block.
_KS_STRIDE = 256
_KS_MIN_STRIDE = 16
_KS_BLOCKS = 512
# Covers float CDFs that step back by a few ulps, and the rounding of the
# block bounds; a block is skipped only when its bound misses by more.
_KS_SLACK = 1e-9
# Sorted points per batch: the gathered blocks are evaluated, and every KS
# term is formed, this many points at a time, so the temporaries stay the
# same size at any N.
_KS_BATCH = 64 * _KS_STRIDE
# Working memory of one batch: 16 arrays of its doubles, above the 1.9 MiB
# peak that tracemalloc reads for a batch against either reference.
_KS_BATCH_BYTES = 16 * 8 * _KS_BATCH


def ks_critical_value(n: int, significance: float) -> float:
    """Critical KS value for sample size n at significance 0.05 or 0.01."""
    # Asymptotic Kolmogorov quantiles: critical value = coefficient / sqrt(N),
    # from Q(lam) = 2 * sum_k (-1)^(k-1) exp(-2 k^2 lam^2).
    try:
        coeff = {0.05: 1.358, 0.01: 1.628}[significance]
    except (KeyError, TypeError):  # TypeError: an unhashable level, such as a list
        raise ValueError(f"unsupported significance {significance}; use 0.05 or 0.01")
    return coeff / math.sqrt(_integer("n", n, 1))


@dataclass(frozen=True)
class MomentSummary:
    """Count, mean and sum of squared deviations over a distance sample.

    An empty summary (count 0) carries NaN statistics and acts as the
    identity for `merge`. Variance is the population one (divide by N), the
    convention reports state in `variance_convention`.
    """

    count: int
    mean: float
    m2: float

    @classmethod
    def empty(cls) -> "MomentSummary":
        return cls(0, math.nan, math.nan)

    @property
    def is_empty(self) -> bool:
        return self.count == 0

    @property
    def variance_population(self) -> float:
        if self.count == 0:
            return math.nan
        return self.m2 / self.count

    def merge(self, other: "MomentSummary") -> "MomentSummary":
        """Combine two summaries as if over the concatenated samples."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self.m2 + other.m2 + delta * delta * self.count * other.count / n
        return MomentSummary(n, mean, m2)


def summarize(distances) -> MomentSummary:
    """Single-pass, numerically stable moment summary of a sample.

    Processes the data in blocks (exact two-pass within a block, the blocks
    merged left to right by `MomentSummary.merge`), which matches the
    parallel-merge semantics and agrees with the plain two-pass definition
    to near machine precision.

    Every sum inside a block is `metric.span_sum`: numpy's pairwise sum of
    each 8192-element span, the spans added left to right. That is the order
    numpy itself used before 2.3; fixing it here keeps a report's bytes a
    function of its data alone, whatever numpy version computes them.

    Raises ValueError if any distance is NaN or infinite.
    """
    x = np.asarray(distances, dtype=np.float64).ravel()
    total = MomentSummary.empty()
    for start in range(0, x.size, _BLOCK):
        block = x[start : start + _BLOCK]
        # NaN or inf anywhere in the block makes its sum, and so its mean,
        # non-finite: one test per block, no extra pass over the data. The
        # ValueError below reports it, so numpy's warning for inf - inf or
        # an overflowing sum is silenced.
        with np.errstate(invalid="ignore", over="ignore"):
            mean = float(span_sum(block)) / block.size
        if not math.isfinite(mean):
            raise ValueError("distances must be finite (no NaN or inf), with a finite sum")
        m2 = float(span_sum((block - mean) ** 2))
        total = total.merge(MomentSummary(block.size, mean, m2))
    return total


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned counts with optional probability-density normalization."""

    bin_edges: np.ndarray
    counts: np.ndarray
    density_mode: bool

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing with >= 2 entries")
        if counts.shape != (edges.size - 1,):
            raise ValueError("counts must have one entry per bin")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "density_mode", _boolean("density_mode", self.density_mode))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.bin_edges)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def heights(self) -> np.ndarray:
        """Counts, or counts/(N * width) when in density mode."""
        if not self.density_mode:
            return self.counts.astype(np.float64)
        return self.counts / (self.total * self.widths)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.density_mode == other.density_mode
            and np.array_equal(self.bin_edges, other.bin_edges)
            and np.array_equal(self.counts, other.counts)
        )


def build_histogram(
    distances,
    bins: int = 30,
    density_mode: bool = False,
) -> Histogram:
    """Equal-width histogram over [min, max] of the data.

    The rightmost bin is closed on both sides, so the counts partition the
    observations. Edges and counts equal `np.histogram`'s: the edges are
    `lo + i * (hi - lo) / bins` with the last set to `hi` (a range of
    width 0 is widened by 0.5 on each side), and a value on an inner edge
    falls in the bin to its right. Sorted data is counted where it lies,
    by binary search; other data is counted in a sorted copy.
    """
    x = np.asarray(distances, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot build a histogram from an empty sample")
    bins = _integer("bins", bins, 1)
    if not _is_sorted(x):
        x = np.sort(x)
    lo, hi = float(x[0]), float(x[-1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"histogram range [{lo}, {hi}] is not finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.arange(bins + 1) * ((hi - lo) / bins) + lo
    edges[-1] = hi
    starts = np.searchsorted(x, edges[:-1], side="left")
    counts = np.diff(starts, append=x.size)
    return Histogram(edges, counts, density_mode)


def _is_sorted(x: np.ndarray) -> bool:
    """Whether the 1-D `x` is nondecreasing with no NaN, checked `_BLOCK` values at a time.

    NaN compares false, so a NaN anywhere fails a comparison with a
    neighbour; a lone value is compared to itself.
    """
    for i in range(0, x.size - 1, _BLOCK):
        block = x[i : i + _BLOCK + 1]  # shares its last value with the next block
        if not np.all(block[:-1] <= block[1:]):
            return False
    return x.size > 1 or bool(x[0] == x[0])


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """A sorted sample, the step CDF F(x) = #(values <= x) / N that `ks_statistic` takes."""

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.sorted_values, dtype=np.float64)
        if v.ndim != 1 or (v.size and not _is_sorted(v)):
            raise ValueError("values must be 1-D, sorted nondecreasing and contain no NaN")
        v.setflags(write=False)
        object.__setattr__(self, "sorted_values", v)

    @classmethod
    def from_values(cls, values) -> "EmpiricalCdf":
        return cls(np.sort(np.asarray(values, dtype=np.float64).ravel()))


def ks_statistic(sample: EmpiricalCdf, reference_cdf: Callable) -> float:
    """Kolmogorov-Smirnov statistic of a sample against a reference CDF.

    The statistic is sup_x |F_N(x) - F(x)|, taken at both one-sided limits
    of every sample point: max over i of max(i/N - F(x_(i)), F(x_(i)) -
    (i-1)/N). `reference_cdf` must be a nondecreasing CDF applied
    elementwise: given an array of points it returns F at each of them (a
    callable that takes scalars only is also accepted).

    F is evaluated only in the blocks of sorted points that can hold the
    supremum. The first point of every block bounds F over the block it
    starts, because F is nondecreasing, and blocks whose bound falls short
    of a value already attained are skipped. A block holds the largest
    power of two at most N/512 points, kept between 16 and 256: 16 up to
    N = 2^14 - 1 (10^4 included), 256 from 2^17 up. The blocks that remain
    are evaluated 16,384 points at a time, one call of F per batch. Where
    every point is evaluated instead (F takes scalars only, does not
    return one value per point or is not nondecreasing at the block
    starts, or the blocks left hold over half the points), F takes them in
    one call, and the terms are formed in slices of the same 16,384
    points. The result is the same double as when every point is
    evaluated at once.
    """
    xs = sample.sorted_values
    n = xs.size
    if n == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    stride = _KS_MIN_STRIDE
    while stride < _KS_STRIDE and 2 * stride * _KS_BLOCKS <= n:
        stride *= 2
    coarse = np.append(np.arange(0, n - 1, stride), n - 1)
    f = _cdf_at(xs[coarse], reference_cdf)
    # No arrays, a step back beyond the slack, or NaN: every point is evaluated.
    if f is not None and np.all(f[1:] >= f[:-1] - _KS_SLACK):
        low = _ks_terms_max(coarse, f, n)
        # Block j holds sorted indices coarse[j] .. coarse[j + 1] - 1. As F is
        # nondecreasing, F(x_(coarse[j])) <= F there <= F(x_(coarse[j + 1])).
        bound = np.maximum(coarse[1:] / n - f[:-1], f[1:] - coarse[:-1] / n)
        starts = coarse[:-1][bound + _KS_SLACK >= low]
        # Past half the points, one contiguous pass costs less than the gather.
        if 2 * starts.size * stride <= n:
            per_batch = _KS_BATCH // stride
            for b in range(0, starts.size, per_batch):
                batch = starts[b : b + per_batch, None] + np.arange(stride)
                idx = np.minimum(batch.ravel(), n - 1)
                ref = np.asarray(reference_cdf(xs[idx]), dtype=np.float64)
                low = max(low, _ks_terms_max(idx, ref, n))
            return low
    ref = _cdf_at(xs, reference_cdf)
    if ref is None:
        ref = np.array([float(reference_cdf(v)) for v in xs])
    return max(_ks_terms_max(np.arange(lo, min(lo + _KS_BATCH, n)), ref[lo : lo + _KS_BATCH], n)
               for lo in range(0, n, _KS_BATCH))


def _cdf_at(points: np.ndarray, reference_cdf: Callable) -> np.ndarray | None:
    """F at `points` as one array of their shape, or None if F cannot take them so."""
    try:
        f = np.asarray(reference_cdf(points), dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return f if f.shape == points.shape else None


def _ks_terms_max(idx: np.ndarray, ref: np.ndarray, n: int) -> float:
    """Largest KS term over the sorted indices `idx`, with F(x_(idx)) = `ref`."""
    steps = (idx + 1) / n
    d_plus = float(np.max(steps - ref))
    d_minus = float(np.max(ref - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)
