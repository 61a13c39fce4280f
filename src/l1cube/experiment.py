"""Reproducible dimension-sweep experiments comparing samples to theory.

With GOF, a row has a `ks_<name>` column for each law of `_reference_laws(dim)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from ._version import __version__
from .analytic import _reference_laws, theoretical_mean, theoretical_variance
from .estimation import (
    EmpiricalCdf,
    Histogram,
    MomentSummary,
    build_histogram,
    ks_critical_value,
    ks_statistic,
    summarize,
)
from .sampling import _MAX_DIM, SampleSpec, _boolean, _integer, _sampler, _uint64, derive_seed

__all__ = [
    "ExperimentConfig", "DimensionReport", "ExperimentReport", "compare_to_theory",
    "run_experiment",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep recipe: dimensions, pairs per dimension, seed, histogram bins.

    The field defaults are the sweep's defaults, the CLI's included.
    """

    dims: tuple[int, ...] = (1, 2, 3, 5, 10, 20, 50, 100)
    num_pairs: int = 10000
    seed: int = 0
    bins: int = 30
    emit_histograms: bool = False
    emit_gof: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_pairs", _integer("num_pairs", self.num_pairs, 2))
        object.__setattr__(self, "seed", _uint64("seed", self.seed))
        object.__setattr__(self, "bins", _integer("bins", self.bins, 1))
        try:
            dims = tuple(_integer(f"dims[{i}]", d, 1, _MAX_DIM) for i, d in enumerate(self.dims))
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
            object.__setattr__(self, name, _boolean(name, getattr(self, name)))


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


def _run_dim(config: ExperimentConfig, dim: int, sample: Callable) -> DimensionReport:
    # Substream keyed by the dimension value, so permuting or extending the
    # dims list never changes another row's samples.
    spec = SampleSpec(dim=dim, num_pairs=config.num_pairs, seed=derive_seed(config.seed, dim))
    distances = sample(spec)
    summary = summarize(distances)
    mean_dev_se, var_dev_rel = compare_to_theory(summary, dim)
    if config.emit_histograms or config.emit_gof:
        # The summary's bytes depend on the drawn order, and it has read the
        # sample; the histogram and KS both take it sorted, in place.
        distances.sort()

    histogram = None
    if config.emit_histograms:
        histogram = build_histogram(distances, bins=config.bins, density_mode=True)

    gof = {}
    if config.emit_gof:
        ecdf = EmpiricalCdf(distances)
        laws = _reference_laws(dim)
        gof = {f"ks_{name}": ks_statistic(ecdf, law.cdf) for name, law in laws.items()}
        gof.update(ks_crit_005=ks_critical_value(config.num_pairs, 0.05),
                   ks_crit_001=ks_critical_value(config.num_pairs, 0.01),
                   gof_backend="exact" if "exact" in laws else "normal_only")

    return DimensionReport(
        dim=dim,
        empirical_mean=summary.mean,
        theoretical_mean=theoretical_mean(dim),
        empirical_variance=summary.variance_population,
        theoretical_variance=theoretical_variance(dim),
        mean_dev_se=mean_dev_se,
        var_dev_rel=var_dev_rel,
        **gof,
        histogram=histogram,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the sweep; a pure function of the config.

    Each dimension is sampled from its own substream (keyed by the
    dimension value), summarized, and compared against the closed forms;
    goodness-of-fit columns test it against the exact density up to its
    ceiling and the normal limit always, recording which backend answered.
    Every row samples on one set of threads.
    """
    with _sampler() as sample:
        rows = tuple(_run_dim(config, dim, sample) for dim in config.dims)
    return ExperimentReport(config=config, rows=rows)
