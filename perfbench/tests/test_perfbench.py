"""Tests of the benchmark itself: the traced replica, the gate, the parsers.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
from pathlib import Path

import numpy as np

from l1cube import run_experiment
from l1cube.cli import main as cli_main

import run
import workloads as wl
from replica import NoSpans, Spans, run_metric, traced_sweep

ROOT = Path(__file__).resolve().parents[2]

# Dims 1 and 2 get an exact reference; 31 is above the exact ceiling.
SMALL = ((1, 2, 31), 3000, ("--gof", "--histograms"))


def test_replica_rows_equal_run_experiment(tmp_path):
    spans = Spans()
    report = traced_sweep(wl.sweep_argv(SMALL, 5, str(tmp_path / "replica")), spans)
    assert report.rows == run_experiment(report.config).rows
    # Every layer span run.py reads was entered by this config.
    entered = set(spans.seconds)
    assert {span for _, span, _ in run.LAYER_METRICS.values() if not span.startswith("metric.")} <= entered
    assert spans.counts["sampling.draws"] == wl.sweep_work(SMALL)[1]
    assert spans.counts["analytic.density_builds"] == 2
    assert spans.counts["output.files"] == 2 + 2 * 3


def test_replica_writes_the_cli_bytes(tmp_path):
    traced_sweep(wl.sweep_argv(SMALL, 5, str(tmp_path / "replica")), Spans())
    assert cli_main(wl.sweep_argv(SMALL, 5, str(tmp_path / "cli"))) == 0
    for name in ("report.json", "table.csv", "hist_n31.csv", "overlay_n2.csv"):
        assert (tmp_path / "replica" / name).read_bytes() == (tmp_path / "cli" / name).read_bytes()


def test_probe_times_the_histogram_a_sweep_skips(tmp_path):
    sweep = ((3,), 2000, ("--gof",))
    spans, probes = Spans(), Spans()
    report = traced_sweep(wl.sweep_argv(sweep, 1, str(tmp_path)), spans, probes)
    assert report.rows[0].histogram is None
    assert "estimation.histogram" not in spans.seconds
    assert "estimation.histogram" in probes.seconds


def test_check_sweep_accepts_a_correct_run_and_rejects_an_outlier(tmp_path):
    assert cli_main(wl.sweep_argv(SMALL, 7, str(tmp_path))) == 0
    assert run.check_sweep(SMALL, tmp_path) == []
    path = tmp_path / "report.json"
    report = json.loads(path.read_text())
    report["rows"][1]["mean_dev_se"] = 7.0
    report["rows"][0]["ks_exact"] = 0.5
    path.write_text(json.dumps(report))
    problems = run.check_sweep(SMALL, tmp_path)
    assert len(problems) == 2
    assert "dim 2: mean_dev_se" in problems[1]


def test_check_metric_requires_equal_paths(tmp_path):
    singles, batches = run_metric(wl.metric_inputs(3, 1), NoSpans())
    np.save(tmp_path / "singles.npy", singles)
    np.save(tmp_path / "batches.npy", batches)
    assert run.check_metric(tmp_path, 3, 1) == []
    batches[5] += 1e-9
    np.save(tmp_path / "batches.npy", batches)
    assert len(run.check_metric(tmp_path, 3, 1)) == 1


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |         scipy._lib",
        "import time:        70 |        120 |       scipy",
        "import time:        30 |        400 |     scipy.special",
        "import time:        10 |        710 |   l1cube.analytic",
        "import time:        20 |        900 | l1cube",
    ])
    assert run.parse_importtime(text) == (400e-6, 900e-6)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
