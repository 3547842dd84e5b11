"""Tests for the MAC array: functional GEMM and Table 3 calibration."""

import math

import numpy as np
import pytest

from repro.core.mac_array import MACArray
from repro.nerf.workload import GEMMOp
from repro.sparse.formats import Precision
from repro.sparse.tensor import random_sparse_matrix


@pytest.fixture(scope="module")
def array():
    return MACArray()


class TestStructure:
    def test_multiplier_counts_match_table3(self, array):
        assert array.num_multipliers(Precision.INT16) == 64**2
        assert array.num_multipliers(Precision.INT8) == 128**2
        assert array.num_multipliers(Precision.INT4) == 256**2

    def test_peak_tops(self, array):
        assert array.peak_tops(Precision.INT16) == pytest.approx(6.55, rel=0.01)
        assert array.peak_tops(Precision.INT4) == pytest.approx(104.9, rel=0.01)

    def test_invalid_dimensions(self):
        for bad in (
            {"rows": 0}, {"rows": math.nan}, {"rows": math.inf}, {"rows": 2.5},
            {"cols": True}, {"frequency_hz": math.nan}, {"frequency_hz": -math.inf},
        ):
            with pytest.raises(ValueError):
                MACArray(**bad)


class TestFunctionalGEMM:
    def test_small_integer_gemm(self, rng):
        array = MACArray(rows=8, cols=8)
        a = random_sparse_matrix((5, 6), 0.5, Precision.INT8, rng)
        b = random_sparse_matrix((6, 4), 0.4, Precision.INT8, rng)
        np.testing.assert_array_equal(array.gemm(a, b, Precision.INT8), a @ b)

    def test_gemm_handles_all_zero_operand(self):
        array = MACArray(rows=4, cols=4)
        result = array.gemm(np.zeros((3, 3)), np.ones((3, 3)), Precision.INT16)
        np.testing.assert_array_equal(result, np.zeros((3, 3)))


class TestTable3Calibration:
    """The composed cost model reproduces the paper's Table 3 values."""

    def test_area(self, array):
        assert array.area().total_mm2 == pytest.approx(28.6, rel=0.03)

    @pytest.mark.parametrize(
        "precision, expected_power",
        [(Precision.INT16, 5.5), (Precision.INT8, 6.4), (Precision.INT4, 6.9)],
    )
    def test_power(self, array, precision, expected_power):
        assert array.power(precision).total_w == pytest.approx(expected_power, rel=0.05)

    @pytest.mark.parametrize(
        "precision, expected_peak",
        [(Precision.INT16, 1.2), (Precision.INT8, 4.1), (Precision.INT4, 15.2)],
    )
    def test_peak_efficiency(self, array, precision, expected_peak):
        assert array.peak_efficiency_tops_per_w(precision) == pytest.approx(
            expected_peak, rel=0.07
        )

    @pytest.mark.parametrize(
        "precision, expected_effective",
        [(Precision.INT16, 1.2), (Precision.INT8, 3.4), (Precision.INT4, 11.8)],
    )
    def test_effective_efficiency(self, array, precision, expected_effective):
        assert array.effective_efficiency_tops_per_w(precision) == pytest.approx(
            expected_effective, rel=0.1
        )

    def test_effective_efficiency_ignores_shape_and_sparsity(self, array):
        # The flexible NoC packs non-zero operands densely, so only the
        # precision's packing efficiency matters.
        square = GEMMOp("a", m=4096, n=64, k=64, precision=Precision.INT8)
        irregular = GEMMOp(
            "b", m=4096, n=65, k=37, precision=Precision.INT8, activation_sparsity=0.7
        )
        assert array.effective_efficiency_tops_per_w(Precision.INT8, square) == pytest.approx(
            array.effective_efficiency_tops_per_w(Precision.INT8, irregular)
        )

    def test_breakdown_blocks_present(self, array):
        breakdown = array.area().breakdown
        assert {"mac_units", "distribution_network", "reduction_tree", "format_codec"} <= set(
            breakdown
        )
        assert breakdown["mac_units"] > breakdown["distribution_network"]

    def test_array_config_flags(self, array):
        config = array.array_config()
        assert config.bit_scalable
        assert config.supports_sparsity
