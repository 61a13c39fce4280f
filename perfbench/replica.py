"""Traced replicas of the l1cube pipelines, built only from public calls.

`traced_sweep` repeats the call sequence of `cli.main` and
`experiment.run_experiment` (one `_run_dim` per dimension) with a span
around each call into a layer, so the per-layer split describes the real
pipeline; the benchmark's tests require its rows to equal
`run_experiment`'s. `run_metric` is the metric-pairs job itself, with spans
around each phase; untraced jobs pass spans that record nothing.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from l1cube import (
    CHUNK_PAIRS,
    DimensionReport,
    EmpiricalCdf,
    ExperimentConfig,
    ExperimentReport,
    NormalApprox,
    Point,
    SampleSpec,
    UnsupportedDimensionError,
    batch_distances,
    build_histogram,
    compare_to_theory,
    derive_seed,
    exact_density,
    ks_critical_value,
    ks_statistic,
    manhattan_distance,
    normal_cdf,
    sample_distances,
    summarize,
    theoretical_mean,
    theoretical_variance,
    write_bundle,
)
from l1cube.cli import build_parser, print_table, resolve_settings


class Spans:
    """Total seconds per span name, plus counts of work done, kept in memory."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n


class NoSpans(Spans):
    """Spans that record nothing, for untraced jobs."""

    @contextmanager
    def __call__(self, name: str):
        yield

    def count(self, name: str, n: int) -> None:
        pass


def traced_run_dim(
    config: ExperimentConfig, dim: int, spans: Spans, probes: Spans | None = None
) -> DimensionReport:
    """`experiment._run_dim` through public calls, with a span per layer call.

    When the config makes no histogram and `probes` is given, the histogram
    the row would get is built and timed into `probes`, outside the row.
    """
    spec = SampleSpec(dim=dim, num_pairs=config.num_pairs, seed=derive_seed(config.seed, dim))
    with spans("sampling.sample"):
        distances = sample_distances(spec)
    spans.count("sampling.draws", 2 * dim * config.num_pairs)
    spans.count("sampling.chunks", math.ceil(config.num_pairs / CHUNK_PAIRS))
    with spans("estimation.summarize"):
        summary = summarize(distances)
    mean_dev_se, var_dev_rel = compare_to_theory(summary, dim)

    histogram = None
    if config.emit_histograms:
        with spans("estimation.histogram"):
            histogram = build_histogram(distances, bins=config.bins, density_mode=True)
    elif probes is not None:
        with probes("estimation.histogram"):
            build_histogram(distances, bins=config.bins, density_mode=True)

    ks_exact = ks_normal = crit05 = crit01 = None
    backend = None
    if config.emit_gof:
        with spans("estimation.ecdf"):
            ecdf = EmpiricalCdf.from_values(distances)
        xs = ecdf.sorted_values
        approx = NormalApprox.for_dim(dim)
        # Each reference CDF is evaluated once in its own span; the KS span
        # then times only the statistic's arithmetic against it.
        with spans("analytic.normal_cdf"):
            ref = normal_cdf(approx, xs)
        with spans("estimation.ks"):
            ks_normal = ks_statistic(ecdf, lambda _: ref)
        try:
            with spans("analytic.density_build"):
                density = exact_density(dim)
        except UnsupportedDimensionError:
            backend = "normal_only"
        else:
            spans.count("analytic.density_builds", 1)
            with spans("analytic.exact_cdf"):
                ref = density.cdf(xs)
            with spans("estimation.ks"):
                ks_exact = ks_statistic(ecdf, lambda _: ref)
            backend = "exact"
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


def traced_sweep(argv: list[str], spans: Spans, probes: Spans | None = None) -> ExperimentReport:
    """`cli.main(argv)` through public calls: parse, sweep, write, print."""
    with spans("cli.parse"):
        settings = resolve_settings(build_parser().parse_args(argv))
        config = ExperimentConfig(
            dims=settings["dims"],
            num_pairs=settings["pairs"],
            seed=settings["seed"],
            bins=settings["bins"],
            emit_histograms=settings["histograms"],
            emit_gof=settings["gof"],
        )
        Path(settings["out"]).mkdir(parents=True, exist_ok=True)
    rows = tuple(traced_run_dim(config, dim, spans, probes) for dim in config.dims)
    report = ExperimentReport(config=config, rows=rows)
    with spans("output.write"):
        bundle = write_bundle(
            report, settings["out"], fmt=settings["format"], figures=settings["histograms"]
        )
    written = [p for p in (bundle.report_json, bundle.table_csv) if p is not None]
    written += bundle.figure_files
    spans.count("output.files", len(written))
    spans.count("output.bytes", sum(p.stat().st_size for p in written))
    with spans("cli.print"):
        print_table(report, sys.stdout)
    return report


def run_metric(inputs, spans: Spans) -> tuple[np.ndarray, np.ndarray]:
    """The metric-pairs job: Points, one distance per pair, one batch per dim.

    Returns the per-pair and the batched distances, concatenated over dims.
    """
    singles, batches = [], []
    for _, coords in inputs:
        with spans("metric.point"):
            pairs = [(Point(row[0]), Point(row[1])) for row in coords]
        with spans("metric.distance"):
            singles.append(np.array([manhattan_distance(p, q) for p, q in pairs]))
        with spans("metric.batch"):
            batches.append(batch_distances(pairs))
        spans.count("metric.pairs", len(pairs))
    return np.concatenate(singles), np.concatenate(batches)


def philox_floor_ns_per_draw(dims, pairs: int, max_draws: int = 20_000_000) -> float:
    """Raw Philox cost per draw at a sweep's chunk shapes, weighted by its draws.

    Times `Generator.random` filling a reused buffer of the shape the sampler
    draws per chunk, (CHUNK_PAIRS, 2, dim), on one generator. Each dimension
    times at most `max_draws` draws, as many chunks as the sweep draws.
    """
    total_ns = 0.0
    total_draws = 0
    for dim in dims:
        m = min(CHUNK_PAIRS, pairs)
        chunk_draws = 2 * dim * m
        timed = max(1, min(math.ceil(pairs / CHUNK_PAIRS), max_draws // chunk_draws))
        gen = np.random.Generator(np.random.Philox(key=dim))
        buf = np.empty((m, 2, dim))
        gen.random(out=buf)
        start = time.perf_counter()
        for _ in range(timed):
            gen.random(out=buf)
        ns_per_draw = (time.perf_counter() - start) * 1e9 / (timed * chunk_draws)
        total_ns += ns_per_draw * 2 * dim * pairs
        total_draws += 2 * dim * pairs
    return total_ns / total_draws
