"""Tests for the analytical footprint model (paper Fig. 7 behaviour)."""

import pytest

from repro.sparse.footprint import FootprintModel
from repro.sparse.formats import Precision, SparsityFormat


class TestFootprintModel:
    def test_native_tiles(self):
        assert FootprintModel.for_precision(Precision.INT16).num_elements == 64 * 64
        assert FootprintModel.for_precision(Precision.INT8).num_elements == 128 * 128
        assert FootprintModel.for_precision(Precision.INT4).num_elements == 256 * 256

    def test_dense_bits_independent_of_sparsity(self):
        model = FootprintModel.for_precision(Precision.INT16)
        assert model.bits(SparsityFormat.NONE, 0.1) == model.bits(SparsityFormat.NONE, 0.9)

    def test_compressed_bits_decrease_with_sparsity(self):
        model = FootprintModel.for_precision(Precision.INT8)
        for fmt in (SparsityFormat.COO, SparsityFormat.CSR, SparsityFormat.BITMAP):
            assert model.bits(fmt, 0.9) < model.bits(fmt, 0.1)

    def test_bitmap_formula(self):
        model = FootprintModel(rows=64, cols=64, precision=Precision.INT16)
        nnz = model.nnz_for_sparsity(0.5)
        assert model.bits(SparsityFormat.BITMAP, 0.5) == 64 * 64 + nnz * 16

    def test_invalid_sparsity_rejected(self):
        model = FootprintModel.for_precision(Precision.INT16)
        with pytest.raises(ValueError):
            model.bits(SparsityFormat.COO, 1.5)

    def test_unknown_format_rejected(self):
        model = FootprintModel.for_precision(Precision.INT16)
        with pytest.raises(ValueError):
            model.bits("not-a-format", 0.5)


class TestPaperTrends:
    """The qualitative trends of paper Fig. 7."""

    def test_compression_helps_at_high_sparsity(self):
        for precision in Precision:
            model = FootprintModel.for_precision(precision)
            for fmt in (SparsityFormat.COO, SparsityFormat.CSR, SparsityFormat.BITMAP):
                assert model.ratio_over_none(fmt, 0.99) < 1.0

    def test_compression_hurts_at_low_sparsity(self):
        for precision in Precision:
            model = FootprintModel.for_precision(precision)
            assert model.ratio_over_none(SparsityFormat.COO, 0.01) > 1.0

    def test_lower_precision_shifts_breakeven_right(self):
        """The COO break-even sparsity grows as the precision shrinks."""
        def breakeven(precision):
            model = FootprintModel.for_precision(precision)
            for pct in range(1, 100):
                if model.ratio_over_none(SparsityFormat.COO, pct / 100.0) < 1.0:
                    return pct
            return 100

        assert breakeven(Precision.INT16) < breakeven(Precision.INT8) < breakeven(Precision.INT4)

    def test_lower_precision_expands_relative_metadata_cost(self):
        ratio16 = FootprintModel.for_precision(Precision.INT16).ratio_over_none(
            SparsityFormat.COO, 0.01
        )
        ratio4 = FootprintModel.for_precision(Precision.INT4).ratio_over_none(
            SparsityFormat.COO, 0.01
        )
        assert ratio4 > ratio16


class TestHelpers:
    def test_custom_shape(self):
        model = FootprintModel(rows=10, cols=10, precision=Precision.INT16)
        assert model.bits(SparsityFormat.NONE, 0.0) == 100 * 16

    def test_sweep_returns_one_value_per_ratio(self):
        model = FootprintModel.for_precision(Precision.INT16)
        values = model.sweep(SparsityFormat.BITMAP, [0.1, 0.5, 0.9])
        assert len(values) == 3
        assert values[0] > values[-1]
