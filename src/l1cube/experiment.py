"""Reproducible dimension-sweep experiments comparing samples to theory."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .analytic import (
    EXACT_DENSITY_MAX_DIM,
    NormalApprox,
    exact_density,
    normal_cdf,
    theoretical_mean,
    theoretical_variance,
)
from .estimation import (
    EmpiricalCdf,
    Histogram,
    MomentSummary,
    build_histogram,
    ks_critical_value,
    ks_statistic,
    summarize,
)
from .sampling import SampleSpec, _integer, _uint64, derive_seed, sample_distances

__all__ = [
    "DEFAULT_DIMS", "DEFAULT_NUM_PAIRS", "ExperimentConfig", "DimensionReport",
    "ExperimentReport", "compare_to_theory", "run_experiment",
]

DEFAULT_DIMS = (1, 2, 3, 5, 10, 20, 50, 100)
DEFAULT_NUM_PAIRS = 10000
DEFAULT_SEED = 0
DEFAULT_BINS = 30


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep recipe: dimensions, pairs per dimension, seed, histogram bins."""

    dims: tuple[int, ...] = DEFAULT_DIMS
    num_pairs: int = DEFAULT_NUM_PAIRS
    seed: int = DEFAULT_SEED
    bins: int = DEFAULT_BINS
    emit_histograms: bool = False
    emit_gof: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_pairs", _integer("num_pairs", self.num_pairs, 2))
        object.__setattr__(self, "seed", _uint64("seed", self.seed))
        object.__setattr__(self, "bins", _integer("bins", self.bins, 1))
        try:
            dims = tuple(_integer(f"dims[{i}]", d, 1) for i, d in enumerate(self.dims))
        except TypeError:
            raise ValueError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        if not dims:
            raise ValueError("dims must be nonempty")
        seen = set()
        for d in dims:
            if d in seen:
                raise ValueError(f"dims must be distinct, got {d} more than once")
            seen.add(d)
        object.__setattr__(self, "dims", dims)
        for name in ("emit_histograms", "emit_gof"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))


@dataclass(frozen=True)
class DimensionReport:
    """One sweep row: empirical vs theoretical moments plus optional GOF columns."""

    dim: int
    empirical_mean: float
    theoretical_mean: float
    empirical_variance: float
    theoretical_variance: float
    mean_dev_se: float
    var_dev_rel: float
    ks_exact: float | None = None
    ks_normal: float | None = None
    ks_crit_005: float | None = None
    ks_crit_001: float | None = None
    gof_backend: str | None = None  # "exact" or "normal_only" when GOF ran
    histogram: Histogram | None = None


@dataclass(frozen=True, kw_only=True)
class ExperimentReport:
    """All sweep rows plus the provenance needed to reproduce them.

    Fields are declared in the JSON report's key order.
    """

    version: str = __version__
    variance_convention: str = "population"
    config: ExperimentConfig
    rows: tuple[DimensionReport, ...]


def compare_to_theory(summary: MomentSummary, dim: int) -> tuple[float, float]:
    """Deviation of a summary from theory.

    Returns (mean deviation in standard-error units, relative variance
    deviation): ((mean - dim/3) / sqrt((dim/18)/count),
    (variance - dim/18) / (dim/18)). Mean offsets beyond about 4 SE signal
    a sampling problem rather than ordinary Monte Carlo noise.
    """
    if summary.is_empty:
        raise ValueError("cannot compare an empty summary to theory")
    mu = theoretical_mean(dim)
    var = theoretical_variance(dim)
    se = math.sqrt(var / summary.count)
    mean_dev_se = (summary.mean - mu) / se
    var_dev_rel = (summary.variance_population - var) / var
    return mean_dev_se, var_dev_rel


def _run_dim(config: ExperimentConfig, dim: int) -> DimensionReport:
    # Substream keyed by the dimension value, so permuting or extending the
    # dims list never changes another row's samples.
    spec = SampleSpec(dim=dim, num_pairs=config.num_pairs, seed=derive_seed(config.seed, dim))
    distances = sample_distances(spec)
    summary = summarize(distances)
    mean_dev_se, var_dev_rel = compare_to_theory(summary, dim)

    histogram = None
    if config.emit_histograms:
        histogram = build_histogram(distances, bins=config.bins, density_mode=True)

    ks_exact = ks_normal = crit05 = crit01 = None
    backend = None
    if config.emit_gof:
        # Summary and histogram have read the sample; sort it where it lies.
        distances.sort()
        ecdf = EmpiricalCdf(distances)
        approx = NormalApprox.for_dim(dim)
        ks_normal = ks_statistic(ecdf, lambda x: normal_cdf(approx, x))
        backend = "exact" if dim <= EXACT_DENSITY_MAX_DIM else "normal_only"
        if backend == "exact":
            ks_exact = ks_statistic(ecdf, exact_density(dim).cdf)
        crit05 = ks_critical_value(config.num_pairs, 0.05)
        crit01 = ks_critical_value(config.num_pairs, 0.01)

    return DimensionReport(
        dim=dim,
        empirical_mean=summary.mean,
        theoretical_mean=theoretical_mean(dim),
        empirical_variance=summary.variance_population,
        theoretical_variance=theoretical_variance(dim),
        mean_dev_se=mean_dev_se,
        var_dev_rel=var_dev_rel,
        ks_exact=ks_exact,
        ks_normal=ks_normal,
        ks_crit_005=crit05,
        ks_crit_001=crit01,
        gof_backend=backend,
        histogram=histogram,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep; a pure function of the config.

    Each dimension is sampled from its own substream (keyed by the
    dimension value), summarized, and compared against the closed forms;
    goodness-of-fit columns use the exact density where it is available and
    fall back to the normal reference above its ceiling, recording which
    backend answered.
    """
    rows = tuple(_run_dim(config, dim) for dim in config.dims)
    return ExperimentReport(config=config, rows=rows)
