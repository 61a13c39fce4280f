import importlib

import l1cube

MODULES = ("metric", "sampling", "analytic", "estimation", "experiment", "output")

PUBLIC_NAMES = [
    "CHUNK_PAIRS",
    "DEFAULT_DIMS",
    "DEFAULT_NUM_PAIRS",
    "DimensionReport",
    "EXACT_DENSITY_MAX_DIM",
    "EmpiricalCdf",
    "ExperimentConfig",
    "ExperimentReport",
    "Histogram",
    "MomentSummary",
    "NormalApprox",
    "OutputBundle",
    "PiecewisePolynomial",
    "Point",
    "SampleSpec",
    "TheoreticalMoments",
    "UnsupportedDimensionError",
    "__version__",
    "batch_distances",
    "build_histogram",
    "compare_to_theory",
    "derive_seed",
    "derive_stream",
    "dump_report_json",
    "emit_figure_data",
    "exact_density",
    "generate_point",
    "ks_critical_value",
    "ks_statistic",
    "load_report_json",
    "manhattan_distance",
    "moments_of",
    "normal_cdf",
    "normal_pdf",
    "read_table_csv",
    "run_experiment",
    "sample_distances",
    "summarize",
    "sup_distance_to_normal",
    "theoretical_excess_kurtosis",
    "theoretical_mean",
    "theoretical_skewness",
    "theoretical_variance",
    "write_bundle",
    "write_report_json",
    "write_table_csv",
    "write_table_rows",
]


def test_public_api_is_each_modules_own_list():
    assert sorted(l1cube.__all__) == PUBLIC_NAMES
    owners: dict[str, str] = {}
    for name in MODULES:
        for public in importlib.import_module(f"l1cube.{name}").__all__:
            assert public not in owners, f"{public} listed by {owners[public]} and {name}"
            owners[public] = name
    assert sorted(["__version__", *owners]) == PUBLIC_NAMES
    for public in l1cube.__all__:
        assert getattr(l1cube, public) is not None
