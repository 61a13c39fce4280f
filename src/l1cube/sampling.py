"""Reproducible generation of uniform points and distance samples.

Every stream is a counter-based Philox substream keyed by (seed, stream_id),
so any substream can be opened independently on any worker and the sampled
sequence never depends on scheduling order. Distance sampling is chunked at
a fixed size with chunk c drawn from stream_id = c; the output is therefore
bitwise identical for any worker count. By default the chunks run on every
CPU the process may use (so `taskset` limits them), and the bytes do not
depend on how many that is.

Each worker takes chunks from one shared queue and keeps one Philox, which
it re-keys to (seed, c) at counter 0 for chunk c. A counter-based stream is
a function of its key and counter alone, so the re-keyed generator yields
exactly what a fresh `derive_stream(seed, c)` would. The worker's draw and
difference buffers are reused from chunk to chunk within one call only.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost
# in the import of this package rather than in the first sample drawn.
from numpy.random import Generator, Philox

from .metric import span_sum

__all__ = [
    "CHUNK_PAIRS", "SampleSpec", "derive_seed", "derive_stream", "sample_distances",
]

_MASK64 = (1 << 64) - 1

# Fixed chunk size: chunk boundaries (and therefore outputs) must never
# depend on the degree of parallelism.
CHUNK_PAIRS = 1024

# Most uniforms drawn in one call. Consecutive draws from a Philox stream
# equal one large draw bit for bit, so this bounds a chunk's memory at huge
# dims without changing any output.
_BLOCK_DRAWS = 1 << 20


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


def _integer(name: str, value, least: int | None = None) -> int:
    """`value` as an int (numpy integers included), or a ValueError naming `name`.

    A bool is rejected too: where a count is meant, True is a caller's mistake.
    With `least`, a value below it is rejected as well.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


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
        for name in ("dim", "num_pairs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sample_distances(spec: SampleSpec, workers: int | None = None) -> np.ndarray:
    """Manhattan distances of `spec.num_pairs` fresh uniform point pairs.

    A pure function of the spec: the returned sequence is bitwise identical
    for any `workers` value, because chunk c always draws from the
    substream (spec.seed, c) regardless of which worker runs it. `workers`
    defaults to the number of usable CPUs; the pool never exceeds the chunk
    count, and a single worker runs the chunks in this thread.
    """
    workers = _usable_cpus() if workers is None else _integer("workers", workers, 1)
    out = np.empty(spec.num_pairs)
    # Pairs per draw call, so a call holds at most _BLOCK_DRAWS uniforms
    # (or one pair, if a pair needs more) whatever the dim.
    step = max(1, _BLOCK_DRAWS // (2 * spec.dim))
    n_chunks = math.ceil(spec.num_pairs / CHUNK_PAIRS)
    chunks = iter(range(n_chunks))
    lock = threading.Lock()

    def next_chunk() -> int | None:
        with lock:
            return next(chunks, None)

    def run_chunks() -> None:
        # One Philox and one pair of buffers per worker, reused for every
        # chunk it takes; none of it outlives this call.
        bits = Philox(key=spec.seed)
        fresh = bits.state  # key (seed, 0), counter 0, buffer empty
        gen = Generator(bits)
        rows = min(CHUNK_PAIRS, step)
        draws = np.empty((rows, 2, spec.dim))
        diff = np.empty((rows, spec.dim))
        for chunk in iter(next_chunk, None):
            # The state a fresh derive_stream(spec.seed, chunk) starts from.
            fresh["state"]["key"][1] = chunk
            bits.state = fresh
            stop = min((chunk + 1) * CHUNK_PAIRS, spec.num_pairs)
            for lo in range(chunk * CHUNK_PAIRS, stop, step):
                k = min(step, stop - lo)
                # C-order fill: pair j consumes P's coordinates, then Q's.
                u = gen.random(out=draws[:k])
                d = np.subtract(u[:, 0, :], u[:, 1, :], out=diff[:k])
                out[lo : lo + k] = span_sum(np.abs(d, out=d))

    workers = min(workers, n_chunks)
    if workers == 1:
        run_chunks()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for task in [pool.submit(run_chunks) for _ in range(workers)]:
                task.result()
    return out
