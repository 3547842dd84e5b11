"""Tests for precision modes and tile-shape rules."""

import pytest

from repro.sparse.formats import (
    Precision,
    index_bits,
    tile_shape_for_precision,
)


class TestPrecision:
    def test_bits(self):
        assert Precision.INT4.bits == 4
        assert Precision.INT8.bits == 8
        assert Precision.INT16.bits == 16

    def test_ranges(self):
        assert Precision.INT4.max_value == 7
        assert Precision.INT4.min_value == -8
        assert Precision.INT8.max_value == 127
        assert Precision.INT16.min_value == -32768

    def test_from_bits(self):
        assert Precision(8) is Precision.INT8

    def test_from_bits_rejects_unsupported(self):
        with pytest.raises(ValueError):
            Precision(32)


class TestTileShape:
    def test_int16_base_tile(self):
        assert tile_shape_for_precision(Precision.INT16) == (64, 64)

    def test_tile_edge_doubles_per_precision_step(self):
        assert tile_shape_for_precision(Precision.INT8) == (128, 128)
        assert tile_shape_for_precision(Precision.INT4) == (256, 256)

    def test_custom_base_edge(self):
        assert tile_shape_for_precision(Precision.INT8, base_edge=16) == (32, 32)


class TestIndexBits:
    @pytest.mark.parametrize(
        "dim, expected", [(1, 1), (2, 1), (3, 2), (64, 6), (65, 7), (256, 8)]
    )
    def test_values(self, dim, expected):
        assert index_bits(dim) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            index_bits(0)

    @pytest.mark.parametrize("dim", [2.5, True, float("nan"), float("inf")])
    def test_rejects_non_integer(self, dim):
        with pytest.raises(ValueError, match="dimension must be >= 1 and an integer"):
            index_bits(dim)
