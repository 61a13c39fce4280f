import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from l1cube import (
    CHUNK_PAIRS,
    ExperimentConfig,
    Point,
    SampleSpec,
    derive_seed,
    derive_stream,
    manhattan_distance,
    run_experiment,
    sample_distances,
    summarize,
)
from l1cube.metric import SUM_SPAN, span_sum
from l1cube.sampling import _WORKER_BYTES, _seek
from pairwise_reference import span_sum as reference_span_sum
import sampler_reference


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_unsigned_64_bit(self):
        for seed, key in [(0, 0), (2**64 - 1, 2**64 - 1), (5, 123456789)]:
            assert 0 <= derive_seed(seed, key) < 2**64

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(0, k) for k in range(200)}
        assert len(seeds) == 200

    def test_distinct_root_seeds_distinct_subseeds(self):
        assert derive_seed(0, 5) != derive_seed(1, 5)

    def test_regression_pins(self):
        # Frozen outputs: changing them silently would re-key every stream
        # and break reproducibility of previously recorded runs.
        assert derive_seed(0, 0) == 12035550249420947055
        assert derive_seed(0, 1) == 6791897765849424158
        assert derive_seed(1, 0) == 627405149472732430
        assert derive_seed(12345, 100) == 13466883139077322134

    @pytest.mark.parametrize(
        "seed, message",
        [
            # Unchecked, -1 would alias 2**64 - 1 and True would alias 1.
            (-1, "seed must be an unsigned 64-bit integer, got -1"),
            (2**64, "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
            (True, "seed must be an integer, got True"),
            (2.5, "seed must be an integer, got 2.5"),
        ],
        ids=["negative", "2**64", "bool", "float"],
    )
    def test_derive_seed_rejects_seeds_outside_uint64(self, seed, message):
        with pytest.raises(ValueError, match=message):
            derive_seed(seed, 5)

    @pytest.mark.parametrize(
        "key, message",
        [
            # Unchecked, 2.5 leaked a TypeError and True aliased 1.
            (2.5, "key must be an integer, got 2.5"),
            (True, "key must be an integer, got True"),
            (np.True_, "key must be an integer, got "),
        ],
        ids=["float", "bool", "numpy-bool"],
    )
    def test_derive_seed_rejects_non_integer_keys(self, key, message):
        with pytest.raises(ValueError, match=message):
            derive_seed(5, key)


class TestSampleSpec:
    def test_fields(self):
        spec = SampleSpec(dim=3, num_pairs=10, seed=99)
        assert (spec.dim, spec.num_pairs, spec.seed) == (3, 10, 99)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=0, num_pairs=1, seed=0),
            dict(dim=1, num_pairs=0, seed=0),
            dict(dim=1, num_pairs=1, seed=-1),
            dict(dim=1, num_pairs=1, seed=2**64),
        ],
    )
    def test_validation(self, kwargs):
        # Each case breaks one field; the message names that field's value.
        (bad,) = (v for k, v in kwargs.items() if v != dict(dim=1, num_pairs=1, seed=0)[k])
        with pytest.raises(ValueError, match=f"got {bad}$"):
            SampleSpec(**kwargs)

    def test_dim_bounded_by_the_philox_counter(self):
        # A chunk's 2 * 1024 * dim uniforms must fit in the 4 * 2^64 that the
        # first counter word addresses. 2^55 fits, and is not sampled here.
        assert SampleSpec(dim=2**55, num_pairs=1, seed=0).dim == 2**55
        with pytest.raises(ValueError, match=f"^dim must be <= {2**55}, got {2**55 + 1}$"):
            SampleSpec(dim=2**55 + 1, num_pairs=1, seed=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(dim=2.5, num_pairs=10, seed=1), "dim must be an integer, got 2.5"),
            (dict(dim=2, num_pairs=10.5, seed=1), "num_pairs must be an integer, got 10.5"),
            (dict(dim=2, num_pairs=10, seed="1"), "seed must be an integer, got '1'"),
            (dict(dim=True, num_pairs=2, seed=1), "dim must be an integer, got True"),
            (dict(dim=2, num_pairs=10, seed=np.False_), "seed must be an integer, got "),
        ],
        ids=["dim", "num_pairs", "seed", "dim-bool", "seed-numpy-bool"],
    )
    def test_rejects_non_integers(self, kwargs, message):
        # These used to construct, then fail in sample_distances with TypeError;
        # a bool used to pass as 0 or 1.
        with pytest.raises(ValueError, match=message):
            SampleSpec(**kwargs)

    def test_numpy_integers_stored_as_int(self):
        spec = SampleSpec(dim=np.int32(3), num_pairs=np.int64(500), seed=np.uint64(2**63))
        assert (spec.dim, spec.num_pairs, spec.seed) == (3, 500, 2**63)
        assert all(type(v) is int for v in (spec.dim, spec.num_pairs, spec.seed))
        plain = SampleSpec(dim=3, num_pairs=500, seed=2**63)
        assert np.array_equal(sample_distances(spec), sample_distances(plain))


class TestStreams:
    def test_same_key_same_sequence(self):
        a = derive_stream(7, 3).random(32)
        b = derive_stream(7, 3).random(32)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = derive_stream(7, 0).random(32)
        b = derive_stream(7, 1).random(32)
        assert not np.array_equal(a, b)

    def test_negative_stream_id_rejected(self):
        with pytest.raises(ValueError, match="stream_id"):
            derive_stream(7, -1)

    @pytest.mark.parametrize(
        "seed, stream_id, message",
        [
            # Each used to alias another key: 2**64 wrapped to 0, -1 to 2**64 - 1.
            (5, 2**64, "stream_id must be an unsigned 64-bit integer, got 18446744073709551616"),
            (-1, 0, "seed must be an unsigned 64-bit integer, got -1"),
            (2**64, 0, "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
            (True, 0, "seed must be an integer, got True"),
            (np.True_, 0, "seed must be an integer, got "),
            (1.5, 0, "seed must be an integer, got 1.5"),
            (5, True, "stream_id must be an integer, got True"),
            (5, np.False_, "stream_id must be an integer, got "),
            (5, 1.5, "stream_id must be an integer, got 1.5"),
        ],
        ids=["stream-id-2**64", "seed-negative", "seed-2**64", "seed-bool", "seed-numpy-bool",
             "seed-float", "stream-id-bool", "stream-id-numpy-bool", "stream-id-float"],
    )
    def test_derive_stream_rejects_keys_outside_uint64(self, seed, stream_id, message):
        with pytest.raises(ValueError, match=message):
            derive_stream(seed, stream_id)

    def test_derive_stream_key_range_ends(self):
        top = 2**64 - 1
        assert not np.array_equal(derive_stream(top, 0).random(8), derive_stream(0, 0).random(8))
        stream = derive_stream(np.uint64(top), np.int32(3)).random(8)
        assert np.array_equal(stream, derive_stream(top, 3).random(8))


@pytest.fixture
def pools(monkeypatch):
    """Record every thread pool the sampler builds: its size, the helper tasks
    submitted to it and the threads that ran them."""
    built = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self.size, self.tasks, self.threads = max_workers, 0, set()
            built.append(self)

        def submit(self, fn, /, *args, **kwargs):
            def task():
                self.threads.add(threading.get_ident())
                return fn(*args, **kwargs)

            self.tasks += 1
            return super().submit(task)

    monkeypatch.setattr("l1cube.sampling.ThreadPoolExecutor", RecordingPool)
    return built


class TestSampleDistances:
    def test_deterministic(self):
        spec = SampleSpec(dim=4, num_pairs=300, seed=21)
        assert np.array_equal(sample_distances(spec), sample_distances(spec))

    def test_shape_and_bounds(self):
        spec = SampleSpec(dim=4, num_pairs=300, seed=21)
        d = sample_distances(spec)
        assert d.shape == (300,)
        assert np.all((d >= 0.0) & (d <= 4.0))

    def test_matches_pointwise_generation(self):
        # Within one chunk, distance j must equal the distance of the j-th
        # (P, Q) pair drawn sequentially from the chunk's own substream.
        spec = SampleSpec(dim=3, num_pairs=5, seed=77)
        stream = derive_stream(77, 0)
        expected = []
        for _ in range(5):
            p = Point(stream.random(3))
            q = Point(stream.random(3))
            expected.append(manhattan_distance(p, q))
        assert np.array_equal(sample_distances(spec), expected)

    def test_chunks_are_prefix_stable(self):
        # Chunk c always draws from substream c, so a longer run extends a
        # shorter one rather than reshuffling it.
        short = sample_distances(SampleSpec(dim=2, num_pairs=CHUNK_PAIRS, seed=5))
        long = sample_distances(SampleSpec(dim=2, num_pairs=CHUNK_PAIRS + 500, seed=5))
        assert np.array_equal(long[:CHUNK_PAIRS], short)

    def test_worker_count_invariance(self, monkeypatch):
        spec = SampleSpec(dim=3, num_pairs=5000, seed=13)
        base = sample_distances(spec, workers=1)
        for workers in (2, 8):
            assert np.array_equal(base, sample_distances(spec, workers=workers))
        wide = SampleSpec(dim=SUM_SPAN + 3, num_pairs=CHUNK_PAIRS + 5, seed=13)
        wide_base = sample_distances(wide, workers=1)
        # Ten pairs per draw call: blocks end short at every chunk's end. At
        # SUM_SPAN + 3 coordinates each pair is now drawn in blocks, and two
        # workers take its two chunks.
        monkeypatch.setattr("l1cube.sampling._BLOCK_DRAWS", 64)
        for workers in (1, 2):
            assert np.array_equal(base, sample_distances(spec, workers=workers))
            assert wide_base.tobytes() == sample_distances(wide, workers=workers).tobytes()

    @pytest.mark.parametrize("workers", [0, -1, -8])
    def test_rejects_worker_count_below_one(self, workers, pools):
        spec = SampleSpec(dim=3, num_pairs=5000, seed=13)
        with pytest.raises(ValueError, match=rf"workers must be >= 1, got {workers}$"):
            sample_distances(spec, workers=workers)
        assert pools == []

    @pytest.mark.parametrize(
        "workers",
        [2.5, True, np.True_, "2", 1.0],
        ids=["float", "bool", "numpy-bool", "str", "whole-float"],
    )
    def test_rejects_non_integer_worker_count(self, workers, pools):
        spec = SampleSpec(dim=3, num_pairs=5000, seed=13)
        with pytest.raises(ValueError, match="workers must be an integer, got "):
            sample_distances(spec, workers=workers)
        assert pools == []

    def test_pool_capped_at_chunk_count(self, pools):
        # The calling thread samples too, so a call submits one helper task
        # fewer than the workers it uses, and never more than the chunks less one.
        one_chunk = SampleSpec(dim=3, num_pairs=CHUNK_PAIRS, seed=13)
        base = sample_distances(one_chunk, workers=1)
        assert np.array_equal(sample_distances(one_chunk, workers=8), base)
        assert [p.tasks for p in pools] == [0]  # a single chunk starts no thread
        three_chunks = SampleSpec(dim=3, num_pairs=2 * CHUNK_PAIRS + 1, seed=13)
        base = sample_distances(three_chunks, workers=1)
        assert np.array_equal(sample_distances(three_chunks, workers=8), base)
        assert [p.tasks for p in pools] == [0, 2]
        assert len(pools[1].threads) <= 2

    def test_default_worker_count_is_usable_cpus(self, pools, monkeypatch):
        spec = SampleSpec(dim=3, num_pairs=5000, seed=13)
        base = sample_distances(spec, workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert np.array_equal(sample_distances(spec), base)
        assert pools == []  # one worker is the calling thread alone
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert np.array_equal(sample_distances(spec), base)
        assert [(p.size, p.tasks) for p in pools] == [(1, 1)]
        # Without an affinity call the CPU count stands in.
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert np.array_equal(sample_distances(spec), base)
        assert [(p.size, p.tasks) for p in pools] == [(1, 1), (2, 2)]

    @pytest.mark.parametrize(
        "dim, num_pairs",
        [(1, CHUNK_PAIRS), (2, CHUNK_PAIRS), (3, CHUNK_PAIRS), (5, CHUNK_PAIRS),
         (7, CHUNK_PAIRS), (8, CHUNK_PAIRS), (9, CHUNK_PAIRS),
         (10, CHUNK_PAIRS), (20, CHUNK_PAIRS), (50, CHUNK_PAIRS), (100, CHUNK_PAIRS),
         (2 * SUM_SPAN + 5, 4)],
    )
    def test_kernel_summation_order(self, dim, num_pairs, monkeypatch):
        # Each pair's coordinates are added in the stated order: numpy's
        # pairwise kernel within 8192-coordinate spans, spans left to right.
        # The pure-Python reference pins that order bit for bit. Dims 1-9
        # are the default sweep's small dims and the edges of numpy's
        # 8-lane unrolled block. One chunk (stream 0) covers every case here.
        spec = SampleSpec(dim=dim, num_pairs=num_pairs, seed=42)
        u = derive_stream(42, 0).random((num_pairs, 2, dim))
        got = sample_distances(spec)
        for j in range(num_pairs):
            assert got[j] == reference_span_sum(np.abs(u[j, 0] - u[j, 1]).tolist())
        # Drawing a chunk in blocks of at most 64 uniforms (a few pairs at
        # dim 10, one pair per call from dim 33 up) changes no bit.
        monkeypatch.setattr("l1cube.sampling._BLOCK_DRAWS", 64)
        assert np.array_equal(sample_distances(spec), got)

    @pytest.mark.parametrize(
        "dim, num_pairs",
        [(1, 3 * CHUNK_PAIRS + 7), (2, 3 * CHUNK_PAIRS + 7), (100, 3 * CHUNK_PAIRS + 7),
         (2**15 + 1, 3), (3 * SUM_SPAN + 5, 3), (2**17 + 3, 3), (2**20 + 1, 3)],
    )
    def test_equals_fresh_stream_oracle(self, dim, num_pairs, monkeypatch):
        # Re-keyed generators and reused buffers give what one fresh stream
        # per chunk gives, for any worker count and draw-call size. Above
        # 2**14 coordinates (SUM_SPAN with 64 or 2 * SUM_SPAN uniforms a
        # call) each pair is drawn in blocks, with P and Q read from two
        # generators set to their offsets; the last block is partial.
        spec = SampleSpec(dim=dim, num_pairs=num_pairs, seed=2024)
        expected = sampler_reference.distances(spec)
        for block_draws in (None, 64, 2 * SUM_SPAN):
            if block_draws:
                monkeypatch.setattr("l1cube.sampling._BLOCK_DRAWS", block_draws)
            for workers in (1, 2):
                got = sample_distances(spec, workers=workers)
                assert got.tobytes() == expected.tobytes(), (block_draws, workers)

    @pytest.mark.parametrize("offset", [0, 1, 2, 3, 4, 5, 7, 8, 1021, 4093, 2 * 2**17 + 3])
    def test_seek_equals_the_read_through_stream(self, offset):
        bits = Philox(key=9)
        state = bits.state
        state["state"]["key"][1] = 4
        _seek(bits, state, offset)
        stream = derive_stream(9, 4).random(offset + 9)
        assert Generator(bits).random(9).tobytes() == stream[offset:].tobytes()

    def test_concurrent_calls_get_their_serial_bytes(self):
        # Two calls at once, each with its own workers: nothing one call
        # reuses may leak into the other.
        specs = [SampleSpec(dim=3, num_pairs=20 * CHUNK_PAIRS + 5, seed=1),
                 SampleSpec(dim=40, num_pairs=6 * CHUNK_PAIRS + 1, seed=2)]
        serial = [sample_distances(spec, workers=1) for spec in specs]
        start = threading.Barrier(len(specs))
        got = [None] * len(specs)

        def run(i):
            start.wait(timeout=60)
            got[i] = sample_distances(specs[i], workers=2)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(specs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for g, s in zip(got, serial):
            assert g is not None and g.tobytes() == s.tobytes()

    def test_shared_chunk_queue_under_frequent_thread_switches(self):
        # More workers than cores take chunks from one queue while threads
        # switch every microsecond: a chunk no worker took would leave its
        # pairs unwritten.
        spec = SampleSpec(dim=1, num_pairs=300 * CHUNK_PAIRS, seed=8)
        base = sample_distances(spec, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_distances(spec, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == base.tobytes()

    def test_single_pair(self):
        d = sample_distances(SampleSpec(dim=1, num_pairs=1, seed=0))
        assert d.shape == (1,)

    def test_sample_mean_near_theory(self):
        # 20000 pairs at dim 4: mean n/3 with SE sqrt((n/18)/N); 5 SE gate.
        spec = SampleSpec(dim=4, num_pairs=20000, seed=3)
        d = sample_distances(spec)
        se = np.sqrt((4 / 18) / 20000)
        assert abs(d.mean() - 4 / 3) < 5 * se


class TestSharedThreads:
    """One set of helper threads serves every row of a sweep and ends with it."""

    def test_one_pool_serves_every_row(self, pools, monkeypatch):
        # Three usable CPUs: the calling thread and two helpers. Every row
        # has three chunks and so submits two helper tasks to the one pool.
        config = ExperimentConfig(dims=tuple(range(1, 9)), num_pairs=3 * CHUNK_PAIRS,
                                  seed=6, emit_gof=True, emit_histograms=True)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        base = run_experiment(config)
        assert pools == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run_experiment(config) == base
        assert [(p.size, p.tasks) for p in pools] == [(2, 16)]
        assert 1 <= len(pools[0].threads) <= 2

    def test_threads_end_with_the_call(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        start = threading.active_count()
        config = ExperimentConfig(dims=(1, 2, 3), num_pairs=3 * CHUNK_PAIRS, seed=6)
        run_experiment(config)
        assert threading.active_count() == start
        sample_distances(SampleSpec(dim=2, num_pairs=3 * CHUNK_PAIRS, seed=6))
        assert threading.active_count() == start
        rows = []

        def summarize_two_rows(distances):
            if len(rows) == 2:
                raise RuntimeError("simulated failure in the third row")
            rows.append(distances.size)
            return summarize(distances)

        monkeypatch.setattr("l1cube.experiment.summarize", summarize_two_rows)
        with pytest.raises(RuntimeError, match="third row"):
            run_experiment(config)
        assert threading.active_count() == start

    @pytest.mark.parametrize("failing", ["calling", "helper"])
    def test_a_failing_worker_stops_the_others(self, failing, monkeypatch):
        # The failing thread's first chunk raises, while every other worker
        # holds its first chunk until then. The error reaches the caller;
        # each other worker ends the one chunk it holds and takes no further
        # one. At dim 1 a chunk is one span_sum call, so no more calls start
        # after the failure than there are other workers.
        spec = SampleSpec(dim=1, num_pairs=64 * CHUNK_PAIRS, seed=4)
        workers = 4
        start = threading.active_count()
        main = threading.main_thread()
        failed = threading.Event()
        lock = threading.Lock()
        after = []

        def failing_span_sum(values):
            in_caller = threading.current_thread() is main
            with lock:
                fail = not failed.is_set() and in_caller == (failing == "calling")
                if failed.is_set():
                    after.append(in_caller)
                elif fail:
                    failed.set()
            if fail:
                raise RuntimeError("simulated draw failure")
            # The other side holds its first chunk until the failure.
            assert failed.wait(timeout=60)
            return span_sum(values)

        monkeypatch.setattr("l1cube.sampling.span_sum", failing_span_sum)
        interval = sys.getswitchinterval()
        # Threads then switch only where one blocks or numpy releases the
        # interpreter lock, never between a failure and its closing the queue.
        sys.setswitchinterval(10.0)
        try:
            with pytest.raises(RuntimeError, match="simulated draw failure"):
                sample_distances(spec, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert failed.is_set() and len(after) <= workers - 1
        assert threading.active_count() == start


class TestSamplerMemory:
    """A worker's buffers are a fixed size at every dim."""

    @pytest.mark.parametrize("dim, num_pairs", [(100, 2**17), (2**17 + 3, CHUNK_PAIRS + 1)])
    def test_calling_thread_allocates_every_buffer(self, dim, num_pairs, pools, monkeypatch):
        # A helper thread allocates in its own malloc arena, whose freed
        # memory the calling thread's later temporaries cannot reuse. So the
        # output and both workers' draw and difference buffers come from the
        # calling thread, and the helper only fills what it is handed. Each
        # Philox's key and counter arrays, a few words each, are numpy's own
        # and are not counted.
        made = []
        empty = np.empty

        def recording_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.nbytes > 64:
                made.append(threading.get_ident())
            return a

        monkeypatch.setattr("l1cube.sampling.np.empty", recording_empty)
        sample_distances(SampleSpec(dim=dim, num_pairs=num_pairs, seed=3), workers=2)
        (pool,) = pools
        assert pool.threads and threading.get_ident() not in pool.threads
        assert made == [threading.get_ident()] * 5

    @pytest.mark.parametrize("dim, num_pairs", [(100, 2**17), (2**17 + 3, 2)])
    def test_peak_beside_the_output(self, dim, num_pairs):
        # Two workers at dim 100; one at the block-path dim, as its two pairs
        # are one chunk. Each worker's draws and differences take 384 KiB;
        # before the fixed budget, dim 100 held 2.4 MiB a worker and dim
        # 2**17 + 3 a whole pair, 3 MiB. The slack covers numpy's ufunc
        # buffers for the strided P - Q at dim 100, 128 KiB a worker, and
        # 64 KiB for the threads and the generators. The peaks read 1,033 and
        # 392 KiB past the output (5,075 and 9,220 KiB before the budget).
        spec = SampleSpec(dim=dim, num_pairs=num_pairs, seed=3)
        tracemalloc.start()
        try:
            out = sample_distances(spec, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 2 * _WORKER_BYTES + 2 * (128 << 10) + (64 << 10)
