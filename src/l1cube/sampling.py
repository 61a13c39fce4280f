"""Reproducible generation of uniform points and distance samples.

Every stream is a counter-based Philox substream keyed by (seed, stream_id),
so any substream can be opened independently on any worker and the sampled
sequence never depends on scheduling order. Distance sampling is chunked at
a fixed size with chunk c drawn from stream_id = c; the output is therefore
bitwise identical for any worker count. By default the chunks run on every
CPU the process may use (so `taskset` limits them), and the bytes do not
depend on how many that is.

The workers are the calling thread and helper threads that live for one
`run_experiment`, or one `sample_distances`, and serve each of its rows.
For a row, each worker takes chunks from one shared queue and keeps one
Philox, which it re-keys to (seed, c) at counter 0 for chunk c. A
counter-based stream is a function of its key and counter alone, so the
re-keyed generator yields exactly what a fresh `derive_stream(seed, c)`
would. The calling thread allocates every worker's draw and difference
buffers for the row and hands them over, because a helper thread allocates
in its own malloc arena, whose freed memory the calling thread's later
temporaries cannot reuse. What helpers still allocate is numpy's ufunc
buffers for the strided `P - Q`, about 128 KiB per call per worker. A
worker reuses its buffers from chunk to chunk within one row only, and their
size is fixed whatever the dim: above `_BLOCK_DRAWS / 2` coordinates each
pair is drawn in blocks, from two Philox set by their counter to where the
pair's P and Q start in the chunk's stream, and `span_sum` carries its total
from block to block.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost
# in the import of this package rather than in the first sample drawn.
from numpy.random import Generator, Philox

from .metric import SUM_SPAN, span_sum

__all__ = [
    "CHUNK_PAIRS", "SampleSpec", "derive_seed", "derive_stream", "sample_distances",
]

_MASK64 = (1 << 64) - 1

# Fixed chunk size: chunk boundaries (and therefore outputs) must never
# depend on the degree of parallelism.
CHUNK_PAIRS = 1024

# Most uniforms drawn in one call, a power of two. Consecutive draws from a
# Philox stream equal one large draw bit for bit, so this bounds a worker's
# buffers at every dim without changing any output: 256 KiB of draws and
# 128 KiB of differences. At dim <= 16 a whole chunk is one call.
_BLOCK_DRAWS = 1 << 15
# A worker's draw and difference buffers, in bytes.
_WORKER_BYTES = 8 * (_BLOCK_DRAWS + _BLOCK_DRAWS // 2)
# Largest dim that can be sampled, 2^55. `_seek` sets the first of the
# Philox counter's four 64-bit words only, and each counter value gives four
# uniforms, so a chunk's 2 * CHUNK_PAIRS * dim uniforms fit in 4 * 2^64.
_MAX_DIM = 4 * 2**64 // (2 * CHUNK_PAIRS)


def _splitmix64(z: int) -> int:
    """SplitMix64 finalizer; a bijective 64-bit mix."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, key: int) -> int:
    """Deterministic 64-bit subseed for the substream family labeled `key`.

    Used to give each experiment dimension its own seed keyed by the
    dimension value, so adding or reordering dimensions never changes
    another row's samples. `seed` must be in [0, 2^64); `key` is an integer
    label, masked to 64 bits.
    """
    return _splitmix64(_uint64("seed", seed) ^ _splitmix64(_integer("key", key) & _MASK64))


def _integer(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int (numpy integers included), or a ValueError naming `name`.

    A bool is rejected too: where a count is meant, True is a caller's mistake.
    With `least`, a value below it is rejected as well, and with `most`, a
    value above it.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value}")
    return value


def _boolean(name: str, value) -> bool:
    """`value` as a bool (numpy bools included), or a ValueError naming `name`."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def _uint64(name: str, value) -> int:
    """`value` as an int in [0, 2^64), or a ValueError naming `name`."""
    value = _integer(name, value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
    return value


@dataclass(frozen=True)
class SampleSpec:
    """Full recipe for one Monte Carlo run: dimension, pair count, seed."""

    dim: int
    num_pairs: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1, _MAX_DIM))
        object.__setattr__(self, "num_pairs", _integer("num_pairs", self.num_pairs, 1))
        object.__setattr__(self, "seed", _uint64("seed", self.seed))


def derive_stream(seed: int, stream_id: int) -> Generator:
    """Open the Philox substream for (seed, stream_id).

    The 128-bit Philox key is (stream_id << 64) | seed: distinct stream ids
    give statistically independent, non-overlapping sequences, and the same
    pair reproduces the same sequence on every platform. Both must be
    integers in [0, 2^64), so no two pairs share a key. The generator's
    state is mutable; give each concurrent caller its own stream.
    """
    key = _uint64("seed", seed) | (_uint64("stream_id", stream_id) << 64)
    return Generator(Philox(key=key))


def _seek(bits: Philox, state: dict, offset: int) -> None:
    """Set `bits` to `state`'s key, `offset` uniforms into its stream.

    Each uniform takes one 64-bit Philox output, and each counter value gives
    four of them; the counter steps before each four are made.
    """
    state["state"]["counter"][0] = offset // 4
    bits.state = state
    bits.random_raw(offset % 4, output=False)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _sampler(workers: int | None = None):
    """Yield `sample(spec)`, drawing on this thread and `workers - 1` helpers that end with it."""
    workers = _usable_cpus() if workers is None else _integer("workers", workers, 1)
    with ThreadPoolExecutor(workers - 1) if workers > 1 else nullcontext() as pool:
        yield lambda spec: _sample(spec, pool, workers)


def sample_distances(spec: SampleSpec, workers: int | None = None) -> np.ndarray:
    """Manhattan distances of `spec.num_pairs` fresh uniform point pairs.

    A pure function of the spec: the returned sequence is bitwise identical
    for any `workers` value, because chunk c always draws from the
    substream (spec.seed, c) regardless of which worker runs it. `workers`
    defaults to the number of usable CPUs, the calling thread among them;
    no helper thread outlives the call.
    """
    with _sampler(workers) as sample:
        return sample(spec)


def _sample(spec: SampleSpec, pool: ThreadPoolExecutor | None, workers: int) -> np.ndarray:
    """`spec`'s distances from this thread and at most `workers - 1` tasks on `pool`."""
    dim = spec.dim
    out = np.empty(spec.num_pairs)
    # Coordinates per block, whole SUM_SPANs so blocks keep span_sum's spans.
    # Up to this dim whole pairs are drawn, `step` to a call, else by blocks.
    width = max(SUM_SPAN, _BLOCK_DRAWS // 2)
    step = max(1, _BLOCK_DRAWS // (2 * dim))
    n_chunks = math.ceil(spec.num_pairs / CHUNK_PAIRS)
    chunks = iter(range(n_chunks))
    lock = threading.Lock()

    def next_chunk() -> int | None:
        with lock:
            return next(chunks, None)

    def run_chunks(draws: np.ndarray, diff: np.ndarray) -> None:
        nonlocal chunks
        try:
            # One Philox (two above `width`) per worker, and the buffers it was
            # handed, reused for every chunk it takes.
            bits = Philox(key=spec.seed)
            fresh = bits.state  # key (seed, 0), counter 0, buffer empty
            gen = Generator(bits)
            if dim > width:
                q_bits = Philox(key=spec.seed)
                q_gen = Generator(q_bits)
            for chunk in iter(next_chunk, None):
                # The state a fresh derive_stream(spec.seed, chunk) starts from.
                fresh["state"]["key"][1] = chunk
                start = chunk * CHUNK_PAIRS
                stop = min(start + CHUNK_PAIRS, spec.num_pairs)
                if dim <= width:
                    bits.state = fresh
                    for lo in range(start, stop, step):
                        k = min(step, stop - lo)
                        # C-order fill: pair j consumes P's coordinates, then Q's.
                        u = gen.random(out=draws[:k])
                        d = np.subtract(u[:, 0, :], u[:, 1, :], out=diff[:k])
                        out[lo : lo + k] = span_sum(np.abs(d, out=d))
                else:
                    for i in range(start, stop):
                        offset = 2 * dim * (i - start)
                        _seek(bits, fresh, offset)
                        _seek(q_bits, fresh, offset + dim)
                        total = None
                        for lo in range(0, dim, width):
                            k = min(width, dim - lo)
                            d = np.subtract(gen.random(out=draws[0, :k]),
                                            q_gen.random(out=draws[1, :k]), out=diff[:k])
                            total = span_sum(np.abs(d, out=d), total)
                        out[i] = total
        finally:
            chunks = iter(())  # a worker stops when the queue is empty, or fails

    # This thread allocates every worker's draw and difference buffers for
    # the row. A helper thread allocates in its own malloc arena, whose freed
    # memory this thread's later temporaries cannot reuse.
    if dim > width:
        shapes = (2, width), (width,)
    else:
        rows = min(CHUNK_PAIRS, step)
        shapes = (rows, 2, dim), (rows, dim)
    buffers = [[np.empty(shape) for shape in shapes] for _ in range(min(workers, n_chunks))]
    # Should this thread fail, the pool's shutdown waits for the helpers.
    helpers = [pool.submit(run_chunks, *pair) for pair in buffers[1:]]
    run_chunks(*buffers[0])
    for task in helpers:
        task.result()
    return out
