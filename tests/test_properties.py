"""Property tests: KS, the grid and the histogram against their oracles on generated
inputs, and the sampler's bytes at any worker count.

Examples are derived from each test's name (`derandomize=True`), so every
run checks the same inputs. No example database is kept, and what else
hypothesis stores (a cache of the constants in local source, made while
pytest collects, and a failure's patch file) goes under the system's
temporary directory, not the working one.
"""

import os
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from l1cube import (
    CHUNK_PAIRS,
    EXACT_DENSITY_MAX_DIM,
    EmpiricalCdf,
    NormalApprox,
    SampleSpec,
    build_histogram,
    estimation,
    exact_density,
    ks_statistic,
    sample_distances,
)
from ks_reference import full_ks

set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "l1cube-hypothesis"))

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def samples(draw):
    """(dim, sorted sample on [0, dim]): up to 300 drawn values, or up to 2^18 seeded ones.

    Few levels make many ties; thousands of points make KS skip blocks.
    """
    dim = draw(st.integers(1, EXACT_DENSITY_MAX_DIM))
    if draw(st.booleans()):
        x = np.array(draw(st.lists(st.floats(0, dim), min_size=1, max_size=300)))
    else:
        # Sizes and level counts log-uniform, which hypothesis's integers are
        # not, so that blocks of every size from 16 to 256 points are met.
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = int(np.exp(rng.uniform(0, np.log(1 << 18))))
        levels = int(np.exp(rng.uniform(0, np.log(n + 1))))
        x = np.floor(rng.random(n) * levels) / levels * dim
    return dim, np.sort(x)


@settings(SETTINGS, max_examples=500)
@given(samples(), st.sampled_from(["exact", "normal"]))
@example((1, np.array([0.0, 0.0, 1.0, 1.0, 1.0])), "exact")
def test_ks_statistic_equals_full_ks(case, law):
    dim, x = case
    reference = exact_density(dim).cdf if law == "exact" else NormalApprox.for_dim(dim).cdf
    sample = EmpiricalCdf(x)
    assert ks_statistic(sample, reference) == full_ks(sample, reference)


@SETTINGS
@given(finite, finite, st.integers(2, 4096))
def test_grid_equals_linspace(a, b, n):
    lo, hi = min(a, b), max(a, b)
    if not np.isfinite(hi - lo):
        return  # build_histogram refuses such a range before it makes a grid
    grid = estimation._grid(lo, hi, n)
    # np.linspace warns where (n - 1) * step passes the largest double, and
    # then sets its last point to `hi`; _grid never forms that product.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert grid.tobytes() == np.linspace(lo, hi, n).tobytes()


@SETTINGS
@given(st.lists(st.floats(), min_size=1, max_size=200), st.integers(1, 200))
@example([-1.7e308, 1.7e308], 3)
@example([1.0, 1.0 + 2**-52], 4)
@example([0.5, float("nan")], 2)
def test_build_histogram_equals_numpy(values, bins):
    x = np.array(values)
    try:
        # np.histogram warns on a width past the largest double, then refuses it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            counts, edges = np.histogram(x, bins=bins)
    except ValueError:
        with pytest.raises(ValueError):
            build_histogram(x, bins=bins)
        return
    h = build_histogram(x, bins=bins)
    assert h.bin_edges.tobytes() == edges.tobytes()
    assert np.array_equal(h.counts, counts)


# Pair counts from 1 to 3 * CHUNK_PAIRS + 5, two in three of them past one
# chunk, where helpers take part.
pair_counts = st.builds(lambda chunks, rest: chunks * CHUNK_PAIRS + rest,
                        st.integers(0, 2), st.integers(1, CHUNK_PAIRS + 5))


@SETTINGS
@given(st.integers(1, 64), pair_counts, st.integers(0, 2**64 - 1))
@example(64, 3 * CHUNK_PAIRS + 5, 0)
@example(1, CHUNK_PAIRS + 1, 2**64 - 1)
def test_sample_distances_same_at_any_worker_count(dim, num_pairs, seed):
    spec = SampleSpec(dim=dim, num_pairs=num_pairs, seed=seed)
    base = sample_distances(spec, workers=1).tobytes()
    for workers in (2, 3, 4):
        assert sample_distances(spec, workers=workers).tobytes() == base
