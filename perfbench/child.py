"""One benchmark job in a fresh interpreter, as a CLI user would pay for it.

    python3 child.py import
    python3 child.py job <name> <seed> <out-dir>
    python3 child.py trace <workload> <seed> <out-dir>

`import` stops once `import l1cube` has returned. `job` runs one untraced job:
the sweep `name` through `l1cube.cli.main`, or the metric-pairs passes. `trace`
runs the workload's traced replica, then probes the layers the workload does
not call, then the Philox floor. Outputs go to the out-dir for run.py to
check. The last stdout line is `PERFBENCH <json>`: the CLOCK_MONOTONIC time
the import returned (comparable with run.py's clock), the job times and
the other measurements.
"""

import sys
import time

import l1cube

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (imports after the set-up timestamp)
import mmap  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def finish(**fields) -> int:
    fields["imported"] = IMPORTED
    fields.setdefault("maxrss_kb", maxrss_kb())
    print("PERFBENCH " + json.dumps(fields), flush=True)
    return 0


def save_metric(out: Path, singles, batches) -> None:
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "singles.npy", singles)
    np.save(out / "batches.npy", batches)


def reference() -> float:
    """Seconds a fixed kernel takes: how fast the host runs at this moment.

    The kernel shares no code with l1cube, so no change to the package can
    move it. It does the kinds of work the sweeps do: Philox draws into a
    chunk-shaped buffer and their L1 distances, a sort, and rational
    arithmetic like the exact-density build. Its arrays live in a mapping
    of their own that is unmapped on return: taken from the heap, they
    would raise malloc's mmap threshold, and the job after them would fault
    fewer pages and keep more memory than in a fresh CLI run.
    """
    gen = np.random.Generator(np.random.Philox(7))
    chunk_n, diff_n, sample_n = 1024 * 2 * 100, 1024 * 100, 250_000
    with mmap.mmap(-1, 8 * (chunk_n + diff_n + sample_n)) as mem:
        flat = np.frombuffer(mem, dtype=np.float64)
        chunk = flat[:chunk_n].reshape(1024, 2, 100)
        diff = flat[chunk_n:chunk_n + diff_n].reshape(1024, 100)
        sample = flat[chunk_n + diff_n:]
        start = clock()
        for _ in range(30):
            gen.random(out=chunk)
            np.subtract(chunk[:, 0, :], chunk[:, 1, :], out=diff)
            np.abs(diff, out=diff).sum(axis=1)
        for _ in range(4):
            gen.random(out=sample)
            sample.sort()
        acc = Fraction(0)
        for k in range(1, 1500):
            acc += Fraction(1, k * k)
        elapsed = clock() - start
        del flat, chunk, diff, sample  # the mapping closes only when unexported
    return elapsed


def job(name: str, seed: int, out: Path) -> int:
    """One timed job, between two runs of the reference kernel."""
    before = reference()
    if name != wl.METRIC_WORKLOAD:
        argv = wl.sweep_argv(wl.ALL_SWEEPS[name], seed, str(out))
        start = clock()
        import l1cube.cli

        rc = l1cube.cli.main(argv)
        times = [clock() - start]
    else:
        from replica import NoSpans, run_metric

        inputs = wl.metric_inputs(seed, wl.METRIC_SCALE)
        run_metric(inputs, NoSpans())  # warm-up pass, see workloads.METRIC_PASSES
        times = []
        for _ in range(wl.METRIC_PASSES):
            start = clock()
            singles, batches = run_metric(inputs, NoSpans())
            times.append(clock() - start)
        save_metric(out, singles, batches)
        rc = 0
    peak = maxrss_kb()
    return finish(job_s=times, rc=rc, maxrss_kb=peak, reference_s=[before, reference()])


def trace(workload: str, seed: int, out: Path) -> int:
    from replica import NoSpans, Spans, philox_floor_ns_per_draw, run_metric, traced_sweep

    spans, probes = Spans(), Spans()
    probe_out = out / "probe"
    if workload == wl.METRIC_WORKLOAD:
        inputs = wl.metric_inputs(seed, wl.METRIC_SCALE)
        run_metric(inputs, NoSpans())
        start = clock()
        singles, batches = run_metric(inputs, spans)
        job_s = clock() - start
        save_metric(out, singles, batches)
        sweep = wl.SWEEP_PROBE
        traced_sweep(wl.sweep_argv(sweep, seed, str(probe_out)), probes)
    else:
        sweep = wl.SWEEPS[workload]
        start = clock()
        traced_sweep(wl.sweep_argv(sweep, seed, str(out)), spans, probes)
        job_s = clock() - start
        singles, batches = run_metric(wl.metric_inputs(seed, wl.METRIC_PROBE_SCALE), probes)
        save_metric(probe_out, singles, batches)
    dims, pairs, _ = sweep
    return finish(
        job_s=[job_s],
        rc=0,
        spans=spans.seconds,
        counts=spans.counts,
        probe_spans=probes.seconds,
        probe_counts=probes.counts,
        floor_ns_per_draw=philox_floor_ns_per_draw(dims, pairs),
    )


def main(argv: list[str]) -> int:
    src = os.environ.get("PERFBENCH_SRC", "")
    if not src or not l1cube.__file__.startswith(src):
        print(f"l1cube imported from {l1cube.__file__}, not {src!r}", file=sys.stderr)
        return 3
    if argv == ["import"]:
        return finish()
    mode, name, seed, out = argv
    run = {"job": job, "trace": trace}[mode]
    return run(name, int(seed), Path(out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
