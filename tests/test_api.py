import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import l1cube

MODULES = ("metric", "sampling", "analytic", "estimation", "experiment", "output")

PUBLIC_NAMES = [
    "CHUNK_PAIRS",
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
    "exact_density",
    "ks_critical_value",
    "ks_statistic",
    "manhattan_distance",
    "moments_of",
    "normal_cdf",
    "run_experiment",
    "sample_distances",
    "summarize",
    "sup_distance_to_normal",
    "theoretical_mean",
    "theoretical_variance",
    "write_bundle",
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


def test_readme_quick_start_runs():
    # The first python block in README.md is the documented library example.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


@pytest.mark.filterwarnings("ignore:Support for .* is still \\*beta\\*")
def test_pyproject_reads_the_package_version():
    # The version is declared once, in l1cube/_version.py, which report.json carries.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    config = pyprojecttoml.read_configuration(Path(__file__).parents[1] / "pyproject.toml")
    assert "version" in config["project"]["dynamic"]
    assert config["project"]["version"] == l1cube.__version__


def test_runs_without_importing_scipy(tmp_path):
    # scipy is a test dependency only: importing the package and a full
    # --gof --histograms run (exact and normal-only rows, three chunks each,
    # so helper threads sample) load no scipy module. Nor do they load
    # concurrent.futures or logging, which the sampler's threads do not need.
    # numpy.random, which scipy used to pull in, still loads with the package
    # rather than inside the first run.
    code = (
        "import sys, l1cube, l1cube.cli\n"
        "assert 'numpy.random' in sys.modules\n"
        f"assert l1cube.cli.main(['--dims', '1,2,40', '--pairs', '3000', '--gof', "
        f"'--histograms', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
    assert (tmp_path / "report.json").exists()
