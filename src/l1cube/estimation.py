"""Streaming moments, histograms, empirical CDFs and KS statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metric import SUM_SPAN, span_sum
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
_KS_BATCH = 32 * _KS_STRIDE
# Working memory of one batch: 16 arrays of its doubles, 1 MiB, above the
# 0.9 MiB peak that tracemalloc reads for a batch against either reference.
_KS_BATCH_BYTES = 16 * 8 * _KS_BATCH
# Working memory over the block starts, bytes per sorted point: the starts'
# indices, points, F values and bounds, and the temporaries of the bounds,
# are 6 doubles a start of _KS_STRIDE points, above the 40 bytes a start that
# tracemalloc reads at 2e7 points. They are held beside the batches.
_KS_PAIR_BYTES = 6 * 8 / _KS_STRIDE


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
        # The deviations are squared in place a span at a time, each span's
        # sum carried onto the last, so the temporary is one span, not the
        # block, and m2 is the same double as one span_sum over the block.
        m2 = None
        for lo in range(0, block.size, SUM_SPAN):
            dev = block[lo : lo + SUM_SPAN] - mean
            m2 = span_sum(np.multiply(dev, dev, out=dev), m2)
        total = total.merge(MomentSummary(block.size, mean, float(m2)))
    return total


@dataclass(frozen=True, eq=False)
class Histogram:
    """Binned counts with optional probability-density normalization, in read-only copies."""

    bin_edges: np.ndarray
    counts: np.ndarray
    density_mode: bool

    def __post_init__(self) -> None:
        edges = np.array(self.bin_edges, dtype=np.float64)
        counts = np.array(self.counts, dtype=np.int64)
        if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
                or np.any(np.diff(edges) <= 0)):
            raise ValueError("bin_edges must be finite and strictly increasing with >= 2 entries")
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
    falls in the bin to its right. A range too narrow for `bins` bins of
    nonzero width is refused with a ValueError, as `np.histogram` refuses
    it. Sorted data is counted where it lies, by binary search; other data
    is counted in a sorted copy.
    """
    x = np.asarray(distances, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot build a histogram from an empty sample")
    bins = _integer("bins", bins, 1)
    if not _is_sorted(x):
        x = np.sort(x)
    lo, hi = float(x[0]), float(x[-1])
    # One test refuses NaN, an infinite end and a width past the largest double.
    if not math.isfinite(hi - lo):
        raise ValueError(f"histogram range [{lo}, {hi}] is not finite (width {hi - lo})")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = _grid(lo, hi, bins + 1)
    # Near the ulp of its ends a range has too few doubles for `bins` edges.
    if not np.all(edges[:-1] < edges[1:]):
        raise ValueError(f"histogram range [{lo}, {hi}] cannot be split into {bins} bins of nonzero width")
    starts = np.searchsorted(x, edges[:-1], side="left")
    counts = np.diff(starts, append=x.size)
    return Histogram(edges, counts, density_mode)


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """`n` >= 2 evenly spaced points `lo + i * (hi - lo) / (n - 1)`, the last exactly `hi`.

    This is `np.linspace`'s formula, spelled out so that the histogram edges
    and the overlay grids in the report files do not depend on numpy's
    choice of it.
    """
    return np.append(np.arange(n - 1) * ((hi - lo) / (n - 1)) + lo, hi)


def _is_sorted(x: np.ndarray) -> bool:
    """Whether the 1-D `x` is nondecreasing with no NaN, checked `_BLOCK` values at a time.

    NaN compares false, so a NaN anywhere fails a comparison with a
    neighbour; a lone value is compared to itself. An empty `x` is sorted.
    """
    for i in range(0, x.size - 1, _BLOCK):
        block = x[i : i + _BLOCK + 1]  # shares its last value with the next block
        if not np.all(block[:-1] <= block[1:]):
            return False
    return x.size != 1 or bool(x[0] == x[0])


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """A sorted sample, the step CDF F(x) = #(values <= x) / N that `ks_statistic` takes.

    A float64 1-D input (the sweep's row, sorted in place) is made read-only, not copied.
    """

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.sorted_values, dtype=np.float64)
        if v.ndim != 1 or not _is_sorted(v):
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
    (i-1)/N). `reference_cdf` must be a nondecreasing CDF that takes a 1-D
    float64 array and returns one number per point (NaN raises ValueError).
    A callable that takes scalars only fails at its first call.

    F is called on the first point of every block of sorted points and on
    the last, then on the blocks that can hold the supremum, 8,192 points
    a call. A block's first point bounds F over it, and blocks whose bound
    falls short of a value already attained are skipped, unless F steps
    back at the block starts. A callable that returns F at every sorted
    point whatever its argument is read at the points it needs, and no
    block is skipped. The result is the same double as when every point is
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
    bracket = f is not None
    if bracket:
        ref_at = lambda idx: np.asarray(reference_cdf(xs[idx]), dtype=np.float64)
    else:
        full = _cdf_at(xs, reference_cdf)
        if full is None:
            raise ValueError("reference_cdf must return one value per point of its array argument")
        f, ref_at = full[coarse], full.take
    low = _ks_terms_max(coarse, f, n)
    starts = coarse[:-1]
    if bracket and np.all(f[1:] >= f[:-1] - _KS_SLACK):
        # Block j holds sorted indices coarse[j] .. coarse[j + 1] - 1. As F is
        # nondecreasing, F(x_(coarse[j])) <= F there <= F(x_(coarse[j + 1])).
        bound = np.maximum(coarse[1:] / n - f[:-1], f[1:] - coarse[:-1] / n)
        starts = starts[bound + _KS_SLACK >= low]
    per_batch = _KS_BATCH // stride
    for b in range(0, starts.size, per_batch):
        batch = starts[b : b + per_batch, None] + np.arange(stride)
        idx = np.minimum(batch.ravel(), n - 1)
        low = max(low, _ks_terms_max(idx, ref_at(idx), n))
    return low


def _cdf_at(points: np.ndarray, reference_cdf: Callable) -> np.ndarray | None:
    """F at `points` as one array of their shape, or None if F returns another shape."""
    f = np.asarray(reference_cdf(points), dtype=np.float64)
    return f if f.shape == points.shape else None


def _ks_terms_max(idx: np.ndarray, ref: np.ndarray, n: int) -> float:
    """Largest KS term over the sorted indices `idx`, with F(x_(idx)) = `ref`."""
    steps = (idx + 1) / n
    d_plus = float(np.max(steps - ref))
    if math.isnan(d_plus):
        raise ValueError("reference_cdf returned NaN at a sample point")
    d_minus = float(np.max(ref - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)
