"""Workload definitions shared by run.py and its child processes.

This module imports only numpy, so run.py can build inputs and check
outputs without importing l1cube itself.
"""

from __future__ import annotations

import numpy as np

HEAVY_DIMS = (1, 2, 3, 5, 10, 20, 50, 100)

# The dimension mix of the metric-axiom acceptance test (AC8): (dim, share of
# pairs in percent). It spans 1 to 1000 coordinates per point.
METRIC_MIX = ((1, 30), (2, 20), (5, 15), (10, 12), (50, 10), (100, 6), (500, 4), (1000, 3))

# Sweep workloads run the real CLI; each entry is (dims, pairs, extra flags).
SWEEPS = {
    # ROADMAP's heavy sweep: sampling does most of the work, the exact-density
    # build is small and only two report files are written.
    "sweep-heavy": (HEAVY_DIMS, 1_000_000, ("--gof",)),
    # Every row gets an exact reference built cold in a fresh process, and
    # 60 figure files are written; sampling is small.
    "gof-exact": (tuple(range(1, 31)), 10_000, ("--gof", "--histograms")),
}

# The scalar library API: Point construction, one manhattan_distance per
# pair and one batch_distances per same-dimension batch. No sweep builds a
# Point; traced sweeps measure this layer with a probe of the same job.
METRIC_WORKLOAD = "metric-pairs"
METRIC_SCALE = 200  # pairs per percent of the mix: 20,000 pairs a pass
# A library caller's process has its heap grown already, so each metric-pairs
# child makes one untimed pass over its input before the timed passes. The
# first pass in a fresh interpreter costs about 1.7 times a warm one, mostly
# in page faults, and that cost varied by a factor of two between runs.
METRIC_PASSES = 3

WORKLOADS = tuple(SWEEPS) + (METRIC_WORKLOAD,)

# The CLI's default sweep (dims and pairs as `l1cube` uses with no flags),
# timed in traced runs because ROADMAP's baseline table has a row for it.
DEFAULT_SWEEP = (HEAVY_DIMS, 10_000, ())
DEFAULT_SWEEP_GOF = (HEAVY_DIMS, 10_000, ("--gof", "--histograms"))

# Layers a workload does not call are measured by a small probe in the same
# traced child, so every per-layer metric is a measurement on every workload.
# The sweep probe runs at the metric mix's dims; the metric probe at a
# twentieth of the metric-pairs input.
SWEEP_PROBE = (tuple(d for d, _ in METRIC_MIX), 2_000, ("--gof", "--histograms"))
METRIC_PROBE_SCALE = 10

# Every sweep a child process may be asked to run, by name.
ALL_SWEEPS = {
    **SWEEPS,
    "default": DEFAULT_SWEEP,
    "default-gof": DEFAULT_SWEEP_GOF,
    "probe": SWEEP_PROBE,
}


def sweep_argv(sweep, seed: int, out: str) -> list[str]:
    """CLI arguments for one sweep: (dims, pairs, flags), seed, output dir."""
    dims, pairs, flags = sweep
    return [
        "--dims", ",".join(map(str, dims)),
        "--pairs", str(pairs),
        *flags,
        "--seed", str(seed),
        "--out", out,
    ]


def sweep_work(sweep) -> tuple[int, int]:
    """(pairs sampled, uniform draws made) by one run of a sweep."""
    dims, pairs, _ = sweep
    return len(dims) * pairs, sum(2 * d * pairs for d in dims)


def metric_inputs(seed: int, scale: int) -> list[tuple[int, np.ndarray]]:
    """Seeded point pairs at the metric mix: [(dim, coords of shape (m, 2, dim))]."""
    rng = np.random.default_rng(seed)
    return [(dim, rng.random((share * scale, 2, dim))) for dim, share in METRIC_MIX]
