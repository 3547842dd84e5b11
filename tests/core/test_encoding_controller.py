"""Tests for the NeRF encoding unit, RISC-V controller and DMA engine."""

import numpy as np
import pytest

from repro.core.controller import DMAEngine, DMATransfer, RISCVController
from repro.core.encoding_unit import (
    HashEncodingEngine,
    NeRFEncodingUnit,
    PositionalEncodingEngine,
)
from repro.nerf.hashgrid import HashGrid, HashGridConfig
from repro.nerf.positional import approx_positional_encoding
from repro.nerf.workload import EncodingOp

NAN, INF = float("nan"), float("inf")
BAD_COUNTS = [NAN, INF, -INF, 2.5, True]


class TestPositionalEncodingEngine:
    def test_functional_encoding_matches_approximation(self, rng):
        pee = PositionalEncodingEngine()
        values = rng.random((10, 3))
        np.testing.assert_array_equal(
            pee.encode(values, 6), approx_positional_encoding(values, 6)
        )

    def test_timing_scales_with_points(self):
        pee = PositionalEncodingEngine(num_lanes=64)
        small = EncodingOp("p", "positional", num_points=640, input_dim=3, output_dim=60)
        large = EncodingOp("p", "positional", num_points=6400, input_dim=3, output_dim=60)
        assert pee.timing(large).cycles == pytest.approx(10 * pee.timing(small).cycles, rel=0.01)

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_lane_count_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="PEE num_lanes must be >= 1 and an integer"):
            PositionalEncodingEngine(num_lanes=value)

    def test_rejects_hash_ops(self):
        with pytest.raises(ValueError):
            PositionalEncodingEngine().timing(
                EncodingOp("h", "hash", num_points=1, input_dim=3, output_dim=4, table_lookups_per_point=8)
            )

    def test_cost_advantage_over_designware(self):
        """Section 5.2.1: 8.2x area and 12.8x power reduction."""
        pee = PositionalEncodingEngine()
        assert pee.designware_cost().area_um2 / pee.cost().area_um2 == pytest.approx(8.2, rel=0.05)
        assert pee.designware_cost().power_mw / pee.cost().power_mw == pytest.approx(12.8, rel=0.05)


class TestHashEncodingEngine:
    def test_coalescing_reduces_cycles(self):
        op = EncodingOp(
            "h", "hash", num_points=64000, input_dim=3, output_dim=32,
            table_lookups_per_point=128, table_bytes=1 << 20,
        )
        fast = HashEncodingEngine(coalescing_factor=8.0)
        slow = HashEncodingEngine(coalescing_factor=1.0)
        assert fast.timing(op).cycles < slow.timing(op).cycles

    def test_measured_coalescing_factor(self, rng):
        grid = HashGrid(HashGridConfig(num_levels=4, log2_table_size=10, base_resolution=4, max_resolution=32))
        hee = HashEncodingEngine()
        hee.encode(grid, rng.random((500, 3)))
        assert hee.measured_coalescing(grid) > 1.0

    def test_rejects_positional_ops(self):
        with pytest.raises(ValueError):
            HashEncodingEngine().timing(
                EncodingOp("p", "positional", num_points=1, input_dim=3, output_dim=6)
            )

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashEncodingEngine(num_units=0)
        with pytest.raises(ValueError):
            HashEncodingEngine(coalescing_factor=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_coalescing_factor_must_be_finite_and_at_least_one(self, value):
        with pytest.raises(ValueError, match="HEE coalescing_factor must be finite"):
            HashEncodingEngine(coalescing_factor=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_clock_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="HEE frequency_hz must be positive"):
            HashEncodingEngine(frequency_hz=value)
        with pytest.raises(ValueError, match="PEE frequency_hz must be positive"):
            PositionalEncodingEngine(frequency_hz=value)

    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_unit_count_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="HEE num_units must be >= 1 and an integer"):
            HashEncodingEngine(num_units=value)


class TestNeRFEncodingUnit:
    def test_dispatch_by_kind(self):
        unit = NeRFEncodingUnit()
        positional = EncodingOp("p", "positional", num_points=1000, input_dim=3, output_dim=60)
        hash_op = EncodingOp(
            "h", "hash", num_points=1000, input_dim=3, output_dim=32,
            table_lookups_per_point=128,
        )
        assert unit.timing(positional).time_s > 0
        assert unit.timing(hash_op).time_s > 0

    def test_cost_reporting(self):
        unit = NeRFEncodingUnit()
        assert 0.1 < unit.area_mm2() < 5.0
        assert 0.0 < unit.power_w() < 2.0


class TestControllerAndDMA:
    def test_controller_cost_includes_program_memory(self):
        cost = RISCVController().cost()
        assert cost.area_um2 > 68000.0

    def test_dma_transfer_time_and_energy(self):
        dma = DMAEngine()
        transfer = DMATransfer(num_bytes=12.8e9)
        assert dma.transfer_time_s(transfer) == pytest.approx(1.0, rel=0.01)
        assert dma.transfer_energy_j(transfer) > 0
        assert dma.execute(transfer) > 0
        assert len(dma.completed) == 1

    def test_dma_transfer_validation(self):
        with pytest.raises(ValueError):
            DMATransfer(num_bytes=-1)
        with pytest.raises(ValueError):
            DMATransfer(num_bytes=1, direction="sideways")

    @pytest.mark.parametrize("num_bytes", [float("nan"), float("inf"), -float("inf")])
    def test_dma_transfer_rejects_non_finite_size(self, num_bytes):
        with pytest.raises(ValueError, match="transfer size must be non-negative"):
            DMATransfer(num_bytes=num_bytes)
