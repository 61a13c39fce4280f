"""Manhattan distances between uniform random points in the unit hypercube.

The package samples pairs of independent uniform points in [0, 1]^n, measures
their L1 distance, and compares the empirical distribution against exact and
asymptotic theory: the mean grows as n/3, the variance as n/18, and the
standardized distance approaches a normal law as the dimension increases.
"""

from ._version import __version__
from .analytic import (
    EXACT_DENSITY_MAX_DIM,
    NormalApprox,
    PiecewisePolynomial,
    TheoreticalMoments,
    UnsupportedDimensionError,
    exact_density,
    moments_of,
    normal_cdf,
    normal_pdf,
    single_dim_density,
    sup_distance_to_normal,
    theoretical_excess_kurtosis,
    theoretical_mean,
    theoretical_skewness,
    theoretical_variance,
)
from .estimation import (
    KS_COEFF_01,
    KS_COEFF_05,
    EmpiricalCdf,
    Histogram,
    MomentSummary,
    build_histogram,
    ks_critical_value,
    ks_statistic,
    summarize,
)
from .experiment import (
    DEFAULT_DIMS,
    DEFAULT_NUM_PAIRS,
    DimensionReport,
    ExperimentConfig,
    ExperimentReport,
    compare_to_theory,
    run_experiment,
)
from .metric import Point, batch_distances, manhattan_distance
from .output import (
    OutputBundle,
    dump_report_json,
    emit_figure_data,
    load_report_json,
    read_table_csv,
    write_bundle,
    write_report_json,
    write_table_csv,
    write_table_rows,
)
from .sampling import (
    CHUNK_PAIRS,
    SampleSpec,
    derive_seed,
    derive_stream,
    generate_point,
    sample_distances,
)

__all__ = [
    "__version__",
    # metric
    "Point",
    "manhattan_distance",
    "batch_distances",
    # sampling
    "CHUNK_PAIRS",
    "SampleSpec",
    "derive_seed",
    "derive_stream",
    "generate_point",
    "sample_distances",
    # analytic
    "EXACT_DENSITY_MAX_DIM",
    "UnsupportedDimensionError",
    "theoretical_mean",
    "theoretical_variance",
    "theoretical_skewness",
    "theoretical_excess_kurtosis",
    "TheoreticalMoments",
    "single_dim_density",
    "PiecewisePolynomial",
    "exact_density",
    "moments_of",
    "NormalApprox",
    "normal_pdf",
    "normal_cdf",
    "sup_distance_to_normal",
    # estimation
    "KS_COEFF_05",
    "KS_COEFF_01",
    "ks_critical_value",
    "MomentSummary",
    "summarize",
    "Histogram",
    "build_histogram",
    "EmpiricalCdf",
    "ks_statistic",
    # experiment
    "DEFAULT_DIMS",
    "DEFAULT_NUM_PAIRS",
    "ExperimentConfig",
    "DimensionReport",
    "ExperimentReport",
    "compare_to_theory",
    "run_experiment",
    # output
    "OutputBundle",
    "write_bundle",
    "dump_report_json",
    "write_report_json",
    "load_report_json",
    "write_table_csv",
    "write_table_rows",
    "read_table_csv",
    "emit_figure_data",
]
