"""Streaming moments, histograms, empirical CDFs and KS statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metric import span_sum
from .sampling import _integer

__all__ = [
    "ks_critical_value", "MomentSummary", "summarize", "Histogram", "build_histogram",
    "EmpiricalCdf", "ks_statistic",
]

_BLOCK = 1 << 16

# Sorted points per block of the bracketed KS evaluation.
_KS_STRIDE = 256
# Covers float CDFs that step back by a few ulps, and the rounding of the
# block bounds; a block is skipped only when its bound misses by more.
_KS_SLACK = 1e-9
# Below this many points the second call into the reference costs more than
# the evaluations it saves, so every point is evaluated at once.
_KS_FULL_BELOW = 1 << 17


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
    observations.
    """
    x = np.asarray(distances, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("cannot build a histogram from an empty sample")
    counts, edges = np.histogram(x, bins=_integer("bins", bins, 1))
    return Histogram(edges, counts, density_mode)


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """A sorted sample, the step CDF F(x) = #(values <= x) / N that `ks_statistic` takes."""

    sorted_values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.sorted_values, dtype=np.float64)
        # NaN compares false, so one pass of `<=` over neighbours rejects both
        # a step down and a NaN anywhere; a lone value is compared to itself.
        if v.ndim != 1 or (v.size and not (np.all(v[:-1] <= v[1:]) and v[0] == v[0])):
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
    supremum. Every 256th point bounds F over the block it starts, because
    F is nondecreasing, and blocks whose bound falls short of a value
    already attained are skipped. The result is the same double as when
    every point is evaluated.
    """
    xs = sample.sorted_values
    n = xs.size
    if n == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    if n >= _KS_FULL_BELOW:
        d = _ks_bracketed(xs, reference_cdf)
        if d is not None:
            return d
    try:
        ref = np.asarray(reference_cdf(xs), dtype=np.float64)
        if ref.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        ref = np.array([float(reference_cdf(v)) for v in xs])
    return _ks_terms_max(np.arange(n), ref, n)


def _ks_terms_max(idx: np.ndarray, ref: np.ndarray, n: int) -> float:
    """Largest KS term over the sorted indices `idx`, with F(x_(idx)) = `ref`."""
    steps = (idx + 1) / n
    d_plus = float(np.max(steps - ref))
    d_minus = float(np.max(ref - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)


def _ks_bracketed(xs: np.ndarray, reference_cdf: Callable) -> float | None:
    """KS statistic from F at every block start plus F in the blocks that can win.

    None when F cannot take the coarse points as one array, steps back
    across them by more than the slack, or leaves blocks holding over half
    the points to refine: the caller then evaluates every point.
    """
    n = xs.size
    coarse = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    try:
        f = np.asarray(reference_cdf(xs[coarse]), dtype=np.float64)
    except (TypeError, ValueError):
        return None
    # NaN fails this comparison too.
    if f.shape != coarse.shape or not np.all(f[1:] >= f[:-1] - _KS_SLACK):
        return None
    low = _ks_terms_max(coarse, f, n)
    # Block j holds sorted indices coarse[j] .. coarse[j + 1] - 1. As F is
    # nondecreasing, F(x_(coarse[j])) <= F there <= F(x_(coarse[j + 1])).
    bound = np.maximum(coarse[1:] / n - f[:-1], f[1:] - coarse[:-1] / n)
    starts = coarse[:-1][bound + _KS_SLACK >= low]
    if starts.size == 0:
        return low
    # Past half the points, one contiguous pass costs less than the gather.
    if 2 * starts.size * _KS_STRIDE > n:
        return None
    idx = np.minimum((starts[:, None] + np.arange(_KS_STRIDE)).ravel(), n - 1)
    ref = np.asarray(reference_cdf(xs[idx]), dtype=np.float64)
    return max(low, _ks_terms_max(idx, ref, n))
