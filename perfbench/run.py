"""Benchmark for l1cube: fresh-process jobs, per-layer traces, a correctness gate.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the package is taken
from the checkout's `src/`. The load is a closed loop with one client: one
job at a time, each in a fresh interpreter with no worker threads, because a
CLI user pays for the import and the cold exact-density cache on every run.
The seed makes the inputs; the package receives only the generated inputs.

`--trace 0` reports the end-to-end metrics: `setup_s` (spawn until
`import l1cube` returns), `run_s` (set-up plus the job), `pairs_per_s` (pairs
processed per second of job time) and `peak_rss_mb`. `run_s` and
`pairs_per_s` are scaled to a nominal host pace (see REFERENCE_NOMINAL_S).
`--trace 1` alternates untraced jobs with traced replicas (see replica.py)
and reports the per-layer metrics. Each is the median over the run's
samples. Every child's outputs are checked; failed children count in
`failed`, and the error rate is failed / attempted. The last stdout line is
the JSON result; the lines before it say how many samples each median has
and which environment produced it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench-work"
MARK = "PERFBENCH "

# A run must end within 180 s; children are killed at this point.
HARD_LIMIT_S = 165.0
MIN_JOBS = 3
MIN_SETUPS = 9

# Correctness gate. Each limit is about 6 standard deviations (or the KS
# equivalent), so a correct program fails a row by chance with odds below
# 1e-7, and a 30-row sweep repeated for thousands of runs still passes.
MEAN_DEV_SE_LIMIT = 6.0
VAR_DEV_SD_LIMIT = 6.0
# P(sqrt(N) * D > 3) is about 2 exp(-18) = 3e-8 for the Kolmogorov law.
KS_SQRT_N_LIMIT = 3.0
# Every dimension up to this one must get an exact GOF reference.
EXACT_REFERENCE_DIMS = 30

# Host pace. On a shared host the same job's wall time drifts by up to a
# factor of two over minutes as other tenants load the machine, and a run's
# median drifts with it. So each job child also times a fixed reference
# kernel (child.reference) just before and just after its job, and run_s and
# pairs_per_s are scaled to the pace at which that kernel takes
# REFERENCE_NOMINAL_S, about its time on the baseline host when quiet. The
# kernel shares no code with l1cube, so the scaling cannot hide a change to
# the package. The unscaled medians are printed as `# raw.*` lines; setup_s
# and peak_rss_mb are never scaled.
REFERENCE_NOMINAL_S = 0.085

END_TO_END = {"setup_s": "s", "run_s": "s", "pairs_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics from one traced child: name -> (unit, span that the value
# comes from, value from (span seconds, counts)). A metric whose span the
# workload never entered is taken from the child's probe of that layer.
LAYER_METRICS = {
    "sampling.sample_s": ("s", "sampling.sample", lambda s, c: s["sampling.sample"]),
    "sampling.draws": ("count", "sampling.sample", lambda s, c: c["sampling.draws"]),
    "sampling.chunks": ("count", "sampling.sample", lambda s, c: c["sampling.chunks"]),
    "sampling.ns_per_draw": (
        "ns", "sampling.sample", lambda s, c: s["sampling.sample"] / c["sampling.draws"] * 1e9
    ),
    "analytic.density_build_s": (
        "s", "analytic.density_build", lambda s, c: s["analytic.density_build"]
    ),
    "analytic.density_builds": (
        "count", "analytic.density_build", lambda s, c: c.get("analytic.density_builds", 0)
    ),
    "analytic.exact_cdf_s": ("s", "analytic.exact_cdf", lambda s, c: s["analytic.exact_cdf"]),
    "analytic.normal_cdf_s": ("s", "analytic.normal_cdf", lambda s, c: s["analytic.normal_cdf"]),
    "estimation.summarize_s": (
        "s", "estimation.summarize", lambda s, c: s["estimation.summarize"]
    ),
    "estimation.ecdf_s": ("s", "estimation.ecdf", lambda s, c: s["estimation.ecdf"]),
    "estimation.ks_s": ("s", "estimation.ks", lambda s, c: s["estimation.ks"]),
    "estimation.histogram_s": (
        "s", "estimation.histogram", lambda s, c: s["estimation.histogram"]
    ),
    "output.write_s": ("s", "output.write", lambda s, c: s["output.write"]),
    "output.files": ("count", "output.write", lambda s, c: c["output.files"]),
    "output.bytes": ("B", "output.write", lambda s, c: c["output.bytes"]),
    "cli.parse_s": ("s", "cli.parse", lambda s, c: s["cli.parse"]),
    "cli.print_s": ("s", "cli.print", lambda s, c: s["cli.print"]),
    "metric.point_us": (
        "us", "metric.point", lambda s, c: s["metric.point"] / (2 * c["metric.pairs"]) * 1e6
    ),
    "metric.distance_us": (
        "us", "metric.distance", lambda s, c: s["metric.distance"] / c["metric.pairs"] * 1e6
    ),
    "metric.batch_ns_per_pair": (
        "ns", "metric.batch", lambda s, c: s["metric.batch"] / c["metric.pairs"] * 1e9
    ),
}
# Per-layer metrics that run.py measures around whole children.
RUN_METRICS = {
    "setup.import_scipy_s": "s",
    "setup.import_l1cube_s": "s",
    "sampling.philox_floor_ns_per_draw": "ns",
    "cli.default_sweep_s": "s",
    "cli.default_sweep_gof_s": "s",
    "experiment.unattributed_s": "s",
    "host.reference_s": "s",
}
PER_LAYER = {**{k: v[0] for k, v in LAYER_METRICS.items()}, **RUN_METRICS}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    """Where a result was measured: CPUs, caches and library versions."""
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        env["cpu_model"] = platform.processor()
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"l{level}_cache"] = size
    env["python"] = platform.python_version()
    env["numpy"] = np.__version__
    env["scipy"] = importlib.metadata.version("scipy")
    return env


def parse_importtime(text: str) -> tuple[float, float]:
    """(scipy seconds, l1cube seconds) from `python -X importtime` output.

    The scipy figure sums the cumulative time of every scipy module imported
    from outside scipy; the l1cube figure is the top-level import's total.
    """
    nodes = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, raw = line[len("import time:"):].split("|")
        level = (len(raw) - len(raw.lstrip()) - 1) // 2
        nodes.append((level, raw.strip(), int(cumulative)))

    def is_scipy(name: str) -> bool:
        return name == "scipy" or name.startswith("scipy.")

    scipy_us = l1cube_us = 0
    stack: list[str] = []
    # The output lists children before parents; reversed, parents come first.
    for level, name, cumulative in reversed(nodes):
        del stack[level:]
        if level == 0 and name == "l1cube":
            l1cube_us = cumulative
        if is_scipy(name) and not any(map(is_scipy, stack)):
            scipy_us += cumulative
        stack.append(name)
    return scipy_us / 1e6, l1cube_us / 1e6


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_sweep(sweep, out: Path) -> list[str]:
    """Problems with one sweep's report files; empty when they are correct."""
    dims, pairs, flags = sweep
    gof, histograms = "--gof" in flags, "--histograms" in flags
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = report["rows"]
    if [r["dim"] for r in rows] != list(dims):
        return [f"rows are for dims {[r['dim'] for r in rows]}, not {list(dims)}"]
    table_dims = [ln.split(",", 1)[0] for ln in (out / "table.csv").read_text().splitlines()[1:]]
    problems = []
    if table_dims != [str(d) for d in dims]:
        problems.append(f"table.csv has dims {table_dims}")
    for r in rows:
        d = r["dim"]
        where = f"dim {d}"
        if not math.isclose(r["theoretical_mean"], d / 3, rel_tol=1e-15):
            problems.append(f"{where}: theoretical_mean {r['theoretical_mean']}")
        if not math.isclose(r["theoretical_variance"], d / 18, rel_tol=1e-15):
            problems.append(f"{where}: theoretical_variance {r['theoretical_variance']}")
        if not abs(r["mean_dev_se"]) <= MEAN_DEV_SE_LIMIT:
            problems.append(f"{where}: mean_dev_se {r['mean_dev_se']}")
        # Sample variance has relative sd sqrt((2 + excess kurtosis) / N),
        # and the distance's excess kurtosis is -3 / (5 d).
        var_sd = math.sqrt((2 - 3 / (5 * d)) / pairs)
        if not abs(r["var_dev_rel"]) <= VAR_DEV_SD_LIMIT * var_sd:
            problems.append(f"{where}: var_dev_rel {r['var_dev_rel']}")
        if gof:
            backend = r["gof_backend"]
            if backend == "exact":
                if not r["ks_exact"] * math.sqrt(pairs) <= KS_SQRT_N_LIMIT:
                    problems.append(f"{where}: ks_exact {r['ks_exact']}")
            elif backend != "normal_only" or d <= EXACT_REFERENCE_DIMS:
                problems.append(f"{where}: gof_backend {backend!r}")
            if not 0 <= r["ks_normal"] <= 1:
                problems.append(f"{where}: ks_normal {r['ks_normal']}")
        if histograms:
            hist = r["histogram"]
            if hist is None or sum(hist["counts"]) != pairs:
                problems.append(f"{where}: histogram does not count {pairs} pairs")
            for name in (f"hist_n{d}.csv", f"overlay_n{d}.csv"):
                if not (out / name).is_file():
                    problems.append(f"{where}: {name} missing")
    return problems


def check_metric(out: Path, seed: int, scale: int) -> list[str]:
    """Problems with one metric job's distances; empty when they are correct.

    Per-pair and batched distances must be identical. Against a numpy
    reference they must agree to the summation error bound dim * eps * d,
    so a change of summation order does not count as a failure.
    """
    singles = np.load(out / "singles.npy")
    batches = np.load(out / "batches.npy")
    inputs = wl.metric_inputs(seed, scale)
    ref = np.concatenate([np.abs(c[:, 0, :] - c[:, 1, :]).sum(axis=1) for _, c in inputs])
    dims = np.concatenate([np.full(len(c), d, dtype=np.float64) for d, c in inputs])
    if singles.shape != ref.shape or batches.shape != ref.shape:
        return [f"{singles.shape} / {batches.shape} distances for {ref.shape} pairs"]
    problems = []
    if not np.array_equal(singles, batches):
        problems.append(f"{int(np.sum(singles != batches))} pairs differ between "
                        "manhattan_distance and batch_distances")
    bad = np.abs(singles - ref) > dims * np.finfo(np.float64).eps * ref
    if bad.any():
        problems.append(f"{int(bad.sum())} distances differ from the numpy reference")
    return problems


@dataclass
class Child:
    """One finished child: spawn and exit times, output, result and out dir."""

    t0: float
    t1: float
    stdout: str
    stderr: str
    info: dict = field(default_factory=dict)
    out: Path | None = None


class Run:
    """One benchmark run: launches children, checks them, counts failures."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = clock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, tuple[str, str]] = {}
        self.children = 0
        self.probed: list[str] = []
        self.work = WORK / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PERFBENCH_SRC=str(SRC))

    def elapsed(self) -> float:
        return clock() - self.start

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def spawn(self, args: list[str]) -> Child | None:
        """Run one python child to completion; None if it failed."""
        self.attempted += 1
        timeout = HARD_LIMIT_S - self.elapsed()
        t0 = clock()
        try:
            proc = subprocess.run(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(" ".join(args[-4:]), [f"killed after {timeout:.0f} s"])
            return None
        t1 = clock()
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.fail(" ".join(args[-4:]), [f"exit code {proc.returncode}", *tail])
            return None
        return Child(t0, t1, proc.stdout, proc.stderr)

    def child(self, mode: str, name: str = "") -> Child | None:
        """Run child.py in `mode`; the child with its result and out dir, or None."""
        self.children += 1
        out = self.work / f"{self.children}-{mode}-{name}"
        args = [str(CHILD), mode] + ([name, str(self.seed), str(out)] if name else [])
        done = self.spawn(args)
        if done is None:
            return None
        lines = [ln for ln in done.stdout.splitlines() if ln.startswith(MARK)]
        if not lines:
            self.fail(f"{mode} {name}", ["no result line"])
            return None
        try:
            done.info = json.loads(lines[-1][len(MARK):])
        except ValueError as exc:
            self.fail(f"{mode} {name}", [f"bad result line: {exc}"])
            return None
        done.out = out
        if done.info.get("rc", 0) != 0:
            self.fail(f"{mode} {name}", [f"cli exit code {done.info['rc']}"])
            return None
        return done

    def check(self, label: str, key: str, out: Path) -> bool:
        """Gate one child's outputs; `key` names the sweep or metric input."""
        try:
            if key == wl.METRIC_WORKLOAD:
                problems = check_metric(out, self.seed, wl.METRIC_SCALE)
            elif key == "metric-probe":
                problems = check_metric(out, self.seed, wl.METRIC_PROBE_SCALE)
            else:
                problems = check_sweep(wl.ALL_SWEEPS[key], out)
                # Reruns with one seed must give byte-identical report files,
                # whether written by the CLI or by the traced replica.
                digests = (sha256(out / "report.json"), sha256(out / "table.csv"))
                if self.digests.setdefault(key, digests) != digests:
                    problems.append("report.json/table.csv bytes differ from the run's first")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.fail(label, problems)
            return False
        return True

    def job(self, name: str) -> dict | None:
        """One untraced job, gated: its times, or None if it failed."""
        done = self.child("job", name)
        if done is None or not self.check(f"job {name}", name, done.out):
            return None
        return {
            "setup_s": done.info["imported"] - done.t0,
            "job_s": done.info["job_s"],
            "peak_rss_mb": done.info["maxrss_kb"] / 1024,
            "reference_s": statistics.mean(done.info["reference_s"]),
            "slowdown": statistics.mean(done.info["reference_s"]) / REFERENCE_NOMINAL_S,
        }

    def more(self, durations: list[float], minimum: int) -> bool:
        """Whether another step of the expected duration fits in the run."""
        if self.elapsed() > HARD_LIMIT_S - 20:
            return False
        if len(durations) < minimum:
            return True
        return self.elapsed() + statistics.median(durations) <= self.seconds


def pairs_of(workload: str) -> int:
    if workload == wl.METRIC_WORKLOAD:
        return sum(share * wl.METRIC_SCALE for _, share in wl.METRIC_MIX)
    return wl.sweep_work(wl.SWEEPS[workload])[0]


def end_to_end(run: Run) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    durations: list[float] = []
    pairs = pairs_of(run.workload)
    while run.more(durations, MIN_JOBS):
        t = clock()
        res = run.job(run.workload)
        durations.append(clock() - t)
        if res is not None:
            samples["setup_s"].append(res["setup_s"])
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            samples["host.reference_s"].append(res["reference_s"])
            for job_s in res["job_s"]:
                samples["run_s"].append((res["setup_s"] + job_s) / res["slowdown"])
                samples["pairs_per_s"].append(pairs / job_s * res["slowdown"])
                samples["raw.run_s"].append(res["setup_s"] + job_s)
                samples["raw.pairs_per_s"].append(pairs / job_s)
    # Top up set-up samples with import-only children, so the set-up median
    # always rests on several fresh interpreters.
    while len(samples["setup_s"]) < MIN_SETUPS and run.elapsed() < HARD_LIMIT_S - 20:
        done = run.child("import")
        if done is None:
            break
        samples["setup_s"].append(done.info["imported"] - done.t0)
    return samples


def traced(run: Run) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = defaultdict(list)
    durations: list[float] = []
    workload = run.workload
    probe_key = "metric-probe" if workload in wl.SWEEPS else "probe"
    while run.more(durations, 1):
        t = clock()
        done = run.spawn(["-X", "importtime", "-c", "import l1cube"])
        if done is not None:
            scipy_s, l1cube_s = parse_importtime(done.stderr)
            samples["setup.import_scipy_s"].append(scipy_s)
            samples["setup.import_l1cube_s"].append(l1cube_s)

        res = run.job(workload)
        if res is not None:
            samples["trace.untraced_job_s"] += res["job_s"]
            samples["host.reference_s"].append(res["reference_s"])

        done = run.child("trace", workload)
        if done is not None:
            # The probe's outputs sit inside the workload's; check them first.
            ok = run.check(f"trace {workload} probe", probe_key, done.out / "probe")
            if run.check(f"trace {workload}", workload, done.out) and ok:
                values, run.probed = layer_values(done.info)
                for name, value in values.items():
                    samples[name].append(value)
                samples["trace.span_sum_s"].append(sum(done.info["spans"].values()))
                samples["trace.traced_job_s"] += done.info["job_s"]

        for name, metric in (("default", "cli.default_sweep_s"),
                             ("default-gof", "cli.default_sweep_gof_s")):
            res = run.job(name)
            if res is not None:
                samples[metric].append(res["setup_s"] + res["job_s"][0])
        durations.append(clock() - t)

    if samples["trace.untraced_job_s"] and samples["trace.span_sum_s"]:
        samples["experiment.unattributed_s"].append(
            statistics.median(samples["trace.untraced_job_s"])
            - statistics.median(samples["trace.span_sum_s"])
        )
    return samples


def layer_values(info: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one traced child, and the names its probes gave."""
    values = {}
    probed = []
    for name, (_, span, value) in LAYER_METRICS.items():
        if span in info["spans"]:
            values[name] = value(info["spans"], info["counts"])
        else:
            values[name] = value(info["probe_spans"], info["probe_counts"])
            probed.append(name)
    values["sampling.philox_floor_ns_per_draw"] = info["floor_ns_per_draw"]
    return values, probed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "l1cube" / "__init__.py").is_file():
        print(f"perfbench: no l1cube package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("perfbench: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        # Warm-up: compiles the checkout's bytecode once, as an installed
        # package would have it, so no timed child pays for that.
        run.child("import")
        samples = traced(run) if args.trace else end_to_end(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    wanted = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in wanted if not samples.get(name)]
    print(f"# environment {json.dumps(environment())}")
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{run.attempted} children in {run.elapsed():.1f} s")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(f"# error_rate {run.failed / max(run.attempted, 1):.4g} "
          f"({run.failed} failed of {run.attempted} attempted)")
    if run.probed:
        print(f"# from probes, not called by this workload: {', '.join(run.probed)}")
    units = {**END_TO_END, **PER_LAYER}
    for name, values in sorted(samples.items()):
        unit = units.get(name.removeprefix("raw."), "s")
        print(f"# {name}: median {statistics.median(values):.6g} {unit} "
              f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")
    if missing:
        print(f"perfbench: no successful sample for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
