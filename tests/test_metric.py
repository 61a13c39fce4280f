import dataclasses

import numpy as np
import pytest

from l1cube import Point, batch_distances, manhattan_distance
from l1cube.metric import SUM_SPAN, span_sum


class TestPoint:
    def test_accepts_lists_tuples_and_arrays(self):
        for coords in ([0.1, 0.5], (0.1, 0.5), np.array([0.1, 0.5])):
            p = Point(coords)
            assert p.dim == 2
            assert p.coords.dtype == np.float64

    def test_dim_and_len(self):
        p = Point([0.0, 0.5, 1.0])
        assert p.dim == 3
        assert len(p) == 3

    def test_boundary_coordinates_allowed(self):
        Point([0.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            Point([])

    @pytest.mark.parametrize("bad", [[-0.1], [1.1], [0.5, 2.0], [np.nan], [-np.inf]])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Point(bad)

    def test_coords_are_defensive_copy(self):
        src = np.array([0.2, 0.4])
        p = Point(src)
        src[0] = 0.9
        assert p.coords[0] == 0.2

    def test_coords_read_only(self):
        p = Point([0.2, 0.4])
        with pytest.raises(ValueError):
            p.coords[0] = 0.9

    def test_frozen(self):
        p = Point([0.2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.coords = np.array([0.3])

    def test_equality_by_value(self):
        assert Point([0.1, 0.2]) == Point([0.1, 0.2])
        assert Point([0.1, 0.2]) != Point([0.1, 0.3])
        assert Point([0.1, 0.2]) != Point([0.1])
        assert Point([0.1]) != "not a point"


class TestManhattanDistance:
    def test_hand_values(self):
        p = Point([0.1, 0.9, 0.5])
        q = Point([0.4, 0.2, 0.5])
        assert manhattan_distance(p, q) == pytest.approx(0.3 + 0.7 + 0.0)

    def test_one_dimension(self):
        assert manhattan_distance(Point([0.25]), Point([0.75])) == 0.5

    def test_identity(self):
        p = Point([0.3, 0.7, 0.2])
        assert manhattan_distance(p, p) == 0.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, q = Point(rng.random(7)), Point(rng.random(7))
            assert manhattan_distance(p, q) == manhattan_distance(q, p)

    def test_range_bound(self):
        assert manhattan_distance(Point([0.0] * 4), Point([1.0] * 4)) == 4.0
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = manhattan_distance(Point(rng.random(9)), Point(rng.random(9)))
            assert 0.0 <= d <= 9.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q, r = (Point(rng.random(5)) for _ in range(3))
            assert manhattan_distance(p, r) <= (
                manhattan_distance(p, q) + manhattan_distance(q, r) + 1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            manhattan_distance(Point([0.1, 0.2]), Point([0.1]))

    def test_returns_plain_float(self):
        d = manhattan_distance(Point([0.1]), Point([0.9]))
        assert type(d) is float


class TestBatchDistances:
    def test_matches_single_calls(self):
        rng = np.random.default_rng(8)
        pairs = [(Point(rng.random(4)), Point(rng.random(4))) for _ in range(40)]
        batched = batch_distances(pairs)
        singles = [manhattan_distance(p, q) for p, q in pairs]
        assert np.array_equal(batched, singles)

    def test_mixed_dimensions_across_pairs(self):
        rng = np.random.default_rng(9)
        pairs = [
            (Point(rng.random(d)), Point(rng.random(d))) for d in (1, 3, 3, 7)
        ]
        batched = batch_distances(pairs)
        singles = [manhattan_distance(p, q) for p, q in pairs]
        assert np.array_equal(batched, singles)

    def test_empty_batch(self):
        out = batch_distances([])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_mismatch_names_pair_index(self):
        pairs = [
            (Point([0.1]), Point([0.2])),
            (Point([0.1, 0.2]), Point([0.3])),
        ]
        with pytest.raises(ValueError, match="pair 1"):
            batch_distances(pairs)

    def test_accepts_generators(self):
        pairs = ((Point([0.0]), Point([x])) for x in (0.25, 0.5))
        assert batch_distances(pairs) == pytest.approx([0.25, 0.5])


class TestSpanSum:
    @pytest.mark.parametrize("n", [1, SUM_SPAN, 3 * SUM_SPAN + 5])
    @pytest.mark.parametrize("rows", [(), (16,)])
    def test_blocks_carrying_the_total_equal_the_whole_row(self, n, rows):
        # The sampler sums a long pair in blocks of whole spans, each block
        # adding its span sums onto the total of the ones before it; that is
        # bit for bit the sum of the whole row.
        a = np.random.default_rng(n).random(rows + (n,))
        whole = span_sum(a)
        for block in (SUM_SPAN, 2 * SUM_SPAN):
            total = None
            for lo in range(0, n, block):
                total = span_sum(a[..., lo : lo + block], total)
            assert np.shape(total) == rows
            assert np.asarray(total).tobytes() == np.asarray(whole).tobytes()
