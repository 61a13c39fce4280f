"""Acceptance gate: the eight headline guarantees, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
per criterion. Every check uses its stated tolerance; the statistical ones
run on fixed seeds and are fully deterministic.
"""

import csv
import math
import time

import numpy as np

from l1cube import (
    EmpiricalCdf,
    ExperimentConfig,
    Point,
    SampleSpec,
    derive_seed,
    emit_figure_data,
    exact_density,
    ks_statistic,
    manhattan_distance,
    moments_of,
    run_experiment,
    sample_distances,
    sup_distance_to_normal,
    theoretical_excess_kurtosis,
    theoretical_mean,
    theoretical_skewness,
    theoretical_variance,
    write_bundle,
)

ALL_DIMS = (1, 2, 3, 5, 10, 20, 50, 100)
EXACT_DIMS = (1, 2, 3, 5, 10, 20, 30)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_ac1_closed_form_moments():
    exact = all(
        theoretical_mean(n) == n / 3.0 and theoretical_variance(n) == n / 18.0
        for n in ALL_DIMS
    )
    _verdict(
        "AC1 closed-form moments",
        exact,
        f"mean=n/3 and variance=n/18 to machine precision for dims {ALL_DIMS}",
    )


def test_ac2_exact_density_oracle():
    t0 = time.perf_counter()
    worst_mass = worst_mom = worst_shape = 0.0
    for n in EXACT_DIMS:
        d = exact_density(n)
        m = moments_of(d)
        worst_mass = max(worst_mass, abs(float(d.moment(0)) - 1.0))
        worst_mom = max(
            worst_mom, abs(m.mean - n / 3), abs(m.variance - n / 18)
        )
        worst_shape = max(
            worst_shape,
            abs(m.skewness - theoretical_skewness(n)),
            abs(m.excess_kurtosis - theoretical_excess_kurtosis(n)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_mass <= 1e-9 and worst_mom <= 1e-9 and worst_shape <= 1e-8
    _verdict(
        "AC2 exact-density oracle",
        ok and elapsed < 10.0,
        f"mass err {worst_mass:.1e}, moment err {worst_mom:.1e}, "
        f"skew/kurt err {worst_shape:.1e}, {elapsed:.2f}s",
    )


def test_ac3_monte_carlo_vs_theory():
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig())  # 8 dims x 10^4 pairs, seed 0
    worst_se = worst_rel = 0.0
    for row in report.rows:
        worst_se = max(worst_se, abs(row.mean_dev_se))
        worst_rel = max(worst_rel, abs(row.var_dev_rel))
    in_band = worst_se <= 4.0 and worst_rel <= 0.05

    # Context for the reference n=10 and n=1 rows: the n=10 numbers sit
    # inside these bands; the reference n=1 mean (0.31435) does not, and is
    # treated as an anomaly of that run, not as a target.
    mean_band_10 = 4.0 * math.sqrt((10 / 18) / 10_000)
    row10_inside = (
        abs(3.328307349247761 - 10 / 3) <= mean_band_10
        and abs(0.5597311783409015 - 10 / 18) <= 0.05 * (10 / 18)
    )
    mean_band_1 = 4.0 * math.sqrt((1 / 18) / 10_000)
    row1_outside = abs(0.3143546701376236 - 1 / 3) > mean_band_1

    elapsed = time.perf_counter() - t0
    _verdict(
        "AC3 Monte Carlo vs theory",
        in_band and row10_inside and row1_outside and elapsed < 5.0,
        f"max |mean dev| {worst_se:.2f} SE (<=4), max |var dev| {worst_rel:.3f} "
        f"(<=0.05), reference rows as documented, {elapsed:.2f}s",
    )


def test_ac4_monte_carlo_vs_exact_density():
    t0 = time.perf_counter()
    crit = 1.628 / math.sqrt(10_000)  # 0.01628
    densities = {n: exact_density(n) for n in EXACT_DIMS}
    per_seed_passes = []
    for seed in range(10):
        passes = 0
        for dim in EXACT_DIMS:
            spec = SampleSpec(dim=dim, num_pairs=10_000, seed=derive_seed(seed, dim))
            ecdf = EmpiricalCdf.from_values(sample_distances(spec))
            if ks_statistic(ecdf, densities[dim].cdf) <= crit:
                passes += 1
        per_seed_passes.append(passes)
    elapsed = time.perf_counter() - t0
    every_seed_ok = all(p >= 6 for p in per_seed_passes)
    perfect_seeds = sum(p == 7 for p in per_seed_passes)
    _verdict(
        "AC4 Monte Carlo vs exact density",
        every_seed_ok and perfect_seeds >= 9 and elapsed < 30.0,
        f"per-seed passes {per_seed_passes}, perfect {perfect_seeds}/10, "
        f"KS crit {crit}, {elapsed:.2f}s",
    )


def test_ac5_clt_convergence():
    t0 = time.perf_counter()
    gaps = {n: sup_distance_to_normal(n) for n in EXACT_DIMS}
    values = [gaps[n] for n in EXACT_DIMS]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    # Decay-rate check on the computed pair whose dimension ratio is nearest
    # the prescribed 16x span: dims (2, 30), ratio 15. The dim=1 anchor is
    # pre-asymptotic (its gap Phi(-sqrt(2)) sits at the support edge, about
    # twice the 1/sqrt(n) asymptote), so the rate is measured between dims
    # that are both in the decay regime.
    ratio = gaps[2] / gaps[30]
    predicted = math.sqrt(30 / 2)
    rate_ok = 0.5 <= ratio / predicted <= 2.0
    elapsed = time.perf_counter() - t0
    _verdict(
        "AC5 CLT convergence",
        decreasing and rate_ok and elapsed < 10.0,
        f"sup gaps strictly decreasing over {EXACT_DIMS}; D(2)/D(30)="
        f"{ratio:.3f} vs sqrt(15)={predicted:.3f} (factor "
        f"{ratio / predicted:.3f}), {elapsed:.2f}s",
    )


def test_ac6_shape_check(tmp_path):
    t0 = time.perf_counter()
    report = run_experiment(
        ExperimentConfig(dims=(1,), num_pairs=10_000, seed=0, emit_histograms=True)
    )
    emit_figure_data(report, tmp_path)
    with open(tmp_path / "overlay_n1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    pdf = np.array([float(r["exact_pdf"]) for r in rows])
    triangular = bool(np.all(np.diff(pdf) < 0.0)) and abs(pdf[0] - 2.0) <= 0.02

    skew30 = moments_of(exact_density(30)).skewness
    elapsed = time.perf_counter() - t0
    _verdict(
        "AC6 shape check",
        triangular and skew30 < 0.11 and elapsed < 5.0,
        f"dim=1 overlay decreasing with f(0+)={pdf[0]:.4f}; dim=30 skewness "
        f"{skew30:.4f} < 0.11, {elapsed:.2f}s",
    )


def test_ac7_determinism_and_parallel_invariance(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dims=(1, 5, 50), num_pairs=4000, seed=9, emit_histograms=True, emit_gof=True
    )
    a = write_bundle(run_experiment(cfg), tmp_path / "a", figures=True)
    b = write_bundle(run_experiment(cfg), tmp_path / "b", figures=True)
    files_identical = (
        a.report_json.read_bytes() == b.report_json.read_bytes()
        and a.table_csv.read_bytes() == b.table_csv.read_bytes()
        and all(
            pa.read_bytes() == pb.read_bytes()
            for pa, pb in zip(a.figure_files, b.figure_files)
        )
    )

    spec = SampleSpec(dim=7, num_pairs=5000, seed=123)
    base = sample_distances(spec, workers=1)
    workers_identical = all(
        np.array_equal(base, sample_distances(spec, workers=w)) for w in (2, 8)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        "AC7 determinism and parallel invariance",
        files_identical and workers_identical and elapsed < 10.0,
        f"JSON/CSV/figures byte-identical across reruns; workers 1,2,8 "
        f"bitwise equal, {elapsed:.2f}s",
    )


def test_ac8_metric_axioms():
    t0 = time.perf_counter()
    plan = [
        (1, 30_000), (2, 20_000), (5, 15_000), (10, 12_000),
        (50, 10_000), (100, 6_000), (500, 4_000), (1000, 3_000),
    ]
    assert sum(m for _, m in plan) == 100_000
    rng = np.random.default_rng(2718)
    tol = 1e-12
    violations = 0
    for dim, m in plan:
        coords = rng.random((m, 3, dim))
        for row in coords:
            p, q, r = Point(row[0]), Point(row[1]), Point(row[2])
            d_pq = manhattan_distance(p, q)
            if abs(d_pq - manhattan_distance(q, p)) > tol:  # symmetry
                violations += 1
            if manhattan_distance(p, p) != 0.0:  # identity
                violations += 1
            if not -tol <= d_pq <= dim + tol:  # range bound
                violations += 1
            d_pr = manhattan_distance(p, r)
            d_qr = manhattan_distance(q, r)
            if d_pr > d_pq + d_qr + tol:  # triangle inequality
                violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "AC8 metric axioms",
        violations == 0 and elapsed < 10.0,
        f"0 violations over 100000 instances at dims up to 1000 "
        f"(tol {tol}), {elapsed:.2f}s",
    )
