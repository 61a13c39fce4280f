"""Points in the unit hypercube, the Manhattan (L1) distance, and the one float sum."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Point", "manhattan_distance", "batch_distances"]

# numpy adds a contiguous float64 run as a pairwise tree (8 lanes,
# 128-element leaves). Before numpy 2.3 its iterator cut every reduction into
# buffer-sized runs of 8192 and added their sums left to right; since 2.3 one
# tree spans the whole run. Summing fixed spans here keeps the order, and so
# every digit of a report, the same on both.
SUM_SPAN = 1 << 13


def span_sum(a: np.ndarray, total=None):
    """Sum over the last axis in one fixed order, whatever numpy's buffering.

    Each span of at most `SUM_SPAN` elements is summed by numpy's pairwise
    kernel (error O(eps log n)); the span sums are added left to right, onto
    `total` if given. A float64 scalar for 1-D input, one sum per row else.
    """
    first = np.add.reduce(a[..., :SUM_SPAN], axis=-1)
    total = first if total is None else total + first
    for start in range(SUM_SPAN, a.shape[-1], SUM_SPAN):
        total = total + np.add.reduce(a[..., start : start + SUM_SPAN], axis=-1)
    return total


@dataclass(frozen=True, eq=False)
class Point:
    """Immutable point with every coordinate in [0, 1].

    Coordinates outside the unit interval are rejected at construction
    rather than clamped; the whole analysis assumes the unit hypercube.
    """

    coords: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coords, dtype=np.float64, copy=True).ravel()
        if c.size < 1:
            raise ValueError("a point needs at least one coordinate")
        # min and max propagate NaN, which fails both comparisons.
        if not (c.min() >= 0.0 and c.max() <= 1.0):
            raise ValueError("coordinates must lie in [0, 1]")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)


def manhattan_distance(p: Point, q: Point) -> float:
    """Sum of absolute coordinate differences between two points.

    Symmetric in its arguments; for points in [0, 1]^n the result lies in
    [0, n]. Raises ValueError on dimension mismatch.
    """
    if p.dim != q.dim:
        raise ValueError(
            f"dimension mismatch: first point has {p.dim} coordinates, "
            f"second has {q.dim}"
        )
    return float(span_sum(np.abs(p.coords - q.coords)))


def batch_distances(pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
    """Manhattan distance for each (p, q) pair, preserving input order.

    Raises ValueError naming the offending pair index on any dimension
    mismatch. Returns an empty array for an empty batch.
    """
    pairs = list(pairs)
    for i, (p, q) in enumerate(pairs):
        if p.dim != q.dim:
            raise ValueError(
                f"dimension mismatch at pair {i}: {p.dim} vs {q.dim}"
            )
    if not pairs:
        return np.empty(0, dtype=np.float64)
    dims = {p.dim for p, _ in pairs}
    if len(dims) == 1:
        # Uniform dimension: one vectorized pass.
        a = np.stack([p.coords for p, _ in pairs])
        b = np.stack([q.coords for _, q in pairs])
        return span_sum(np.abs(a - b))
    return np.array([manhattan_distance(p, q) for p, q in pairs])
