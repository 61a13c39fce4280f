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


def ks_critical_value(n: int, significance: float) -> float:
    """Critical KS value for sample size n at significance 0.05 or 0.01."""
    # Asymptotic Kolmogorov quantiles: critical value = coefficient / sqrt(N),
    # from Q(lam) = 2 * sum_k (-1)^(k-1) exp(-2 k^2 lam^2).
    try:
        coeff = {0.05: 1.358, 0.01: 1.628}[significance]
    except KeyError:
        raise ValueError(f"unsupported significance {significance}; use 0.05 or 0.01")
    n = _integer("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return coeff / math.sqrt(n)


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
    """
    x = np.asarray(distances, dtype=np.float64).ravel()
    total = MomentSummary.empty()
    for start in range(0, x.size, _BLOCK):
        block = x[start : start + _BLOCK]
        mean = float(span_sum(block)) / block.size
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
    bins = _integer("bins", bins)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(x, bins=bins)
    return Histogram(edges, counts, density_mode)


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Step CDF of a sample: F(x) = #(values <= x) / N."""

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

    @property
    def n(self) -> int:
        return int(self.sorted_values.size)

    def evaluate(self, x):
        xa = np.asarray(x, dtype=np.float64)
        out = np.searchsorted(self.sorted_values, xa, side="right") / self.n
        return float(out) if xa.ndim == 0 else out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmpiricalCdf):
            return NotImplemented
        return np.array_equal(self.sorted_values, other.sorted_values)


def ks_statistic(sample: EmpiricalCdf, reference_cdf: Callable) -> float:
    """Kolmogorov-Smirnov statistic of a sample against a reference CDF.

    Evaluates sup_x |F_N(x) - F(x)| at both one-sided limits of every
    sample point: max over i of max(i/N - F(x_(i)), F(x_(i)) - (i-1)/N).
    """
    xs = sample.sorted_values
    n = xs.size
    if n == 0:
        raise ValueError("KS statistic of an empty sample is undefined")
    try:
        ref = np.asarray(reference_cdf(xs), dtype=np.float64)
        if ref.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        ref = np.array([float(reference_cdf(v)) for v in xs])
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - ref))
    d_minus = float(np.max(ref - (steps - 1.0 / n)))
    return max(d_plus, d_minus, 0.0)
