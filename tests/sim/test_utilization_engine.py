"""Tests for the utilisation models, the cycle model and the traffic model."""

import pytest

from repro.hw.sram import SRAMMacro
from repro.nerf.workload import GEMMOp, OpCategory
from repro.sim.array_config import ArrayConfig
from repro.sim.engine import GEMMCycleModel
from repro.sim.memory import MemoryTrafficModel
from repro.sim.trace import ExecutionTrace, OpRecord
from repro.sim.utilization import effective_mac_utilization, mapping_utilization
from repro.sparse.formats import Precision, SparsityFormat


FLEXIBLE = ArrayConfig(name="flex", bit_scalable=True, supports_sparsity=True)
RIGID = ArrayConfig(name="rigid")


class TestUtilization:
    def test_flexible_mapping_is_shape_insensitive(self):
        square = GEMMOp("a", m=4096, n=64, k=64)
        irregular = GEMMOp("b", m=4096, n=65, k=37)
        assert mapping_utilization(square, FLEXIBLE) == pytest.approx(
            mapping_utilization(irregular, FLEXIBLE)
        )

    def test_rigid_mapping_suffers_on_irregular_shapes(self):
        square = GEMMOp("a", m=4096, n=64, k=64)
        irregular = GEMMOp("b", m=4096, n=65, k=37)
        assert mapping_utilization(irregular, RIGID) < mapping_utilization(square, RIGID)

    def test_packing_efficiency_decreases_with_precision(self):
        int16, int8, int4 = (
            mapping_utilization(GEMMOp("a", m=4096, n=64, k=64, precision=p), FLEXIBLE)
            for p in (Precision.INT16, Precision.INT8, Precision.INT4)
        )
        assert int16 > int8 > int4

    def test_sparse_mapping_ignores_sparsity_pattern(self):
        dense = GEMMOp("a", m=1000, n=128, k=128)
        sparse = GEMMOp("b", m=1000, n=128, k=128, activation_sparsity=0.9)
        assert mapping_utilization(sparse, FLEXIBLE) == pytest.approx(
            mapping_utilization(dense, FLEXIBLE)
        )

    def test_effective_utilization_penalises_non_sparse_arrays(self):
        op = GEMMOp("a", m=1000, n=64, k=64, activation_sparsity=0.5)
        assert effective_mac_utilization(op, RIGID) < effective_mac_utilization(op, FLEXIBLE)

    def test_rigid_fill_is_boundary_tile_occupancy(self):
        # N = 65 spans two 64-wide column tiles, K = 37 fills 37 of 64 rows.
        op = GEMMOp("a", m=4096, n=65, k=37)
        assert mapping_utilization(op, RIGID) == pytest.approx((65 / 128) * (37 / 64))

    def test_fixed_precision_sparse_array_packs_at_base_precision(self):
        sigma = ArrayConfig(name="sigma", supports_sparsity=True)
        int4 = GEMMOp("a", m=4096, n=64, k=64, precision=Precision.INT4)
        int16 = GEMMOp("a", m=4096, n=64, k=64, precision=Precision.INT16)
        assert mapping_utilization(int4, sigma) == mapping_utilization(int16, sigma)
        assert mapping_utilization(int4, sigma) > mapping_utilization(int4, FLEXIBLE)

    def test_effective_utilization_scales_rigid_fill_by_density(self):
        op = GEMMOp("a", m=1000, n=65, k=37, weight_sparsity=0.5, activation_sparsity=0.2)
        assert effective_mac_utilization(op, RIGID) == pytest.approx(
            mapping_utilization(op, RIGID) * 0.5 * 0.8
        )
        assert effective_mac_utilization(op, FLEXIBLE) == mapping_utilization(op, FLEXIBLE)


class TestCycleModel:
    def test_sparsity_speeds_up_flexible_arrays(self):
        model = GEMMCycleModel(FLEXIBLE)
        dense = model.execute(GEMMOp("d", m=100000, n=256, k=256))
        sparse = model.execute(
            GEMMOp("s", m=100000, n=256, k=256, activation_sparsity=0.5)
        )
        assert sparse.compute_cycles < dense.compute_cycles

    def test_sparsity_does_not_help_rigid_arrays(self):
        model = GEMMCycleModel(RIGID)
        dense = model.execute(GEMMOp("d", m=100000, n=256, k=256))
        sparse = model.execute(
            GEMMOp("s", m=100000, n=256, k=256, activation_sparsity=0.5)
        )
        assert sparse.compute_cycles == pytest.approx(dense.compute_cycles)

    def test_lower_precision_reduces_cycles_on_bit_scalable_array(self):
        model = GEMMCycleModel(FLEXIBLE)
        int16 = model.execute(GEMMOp("a", m=100000, n=256, k=256, precision=Precision.INT16))
        int4 = model.execute(GEMMOp("a", m=100000, n=256, k=256, precision=Precision.INT4))
        assert int4.compute_cycles < int16.compute_cycles / 4

    def test_format_conversion_overhead(self):
        config = ArrayConfig(
            name="conv", bit_scalable=True, supports_sparsity=True,
            format_conversion_overhead=0.1,
        )
        execution = GEMMCycleModel(config).execute(GEMMOp("a", m=1000, n=64, k=64))
        assert execution.format_conversion_cycles == pytest.approx(
            0.1 * execution.compute_cycles
        )

    def test_total_time_is_sum_of_components(self):
        execution = GEMMCycleModel(FLEXIBLE).execute(GEMMOp("a", m=1000, n=64, k=64))
        assert execution.total_time_s == pytest.approx(
            execution.compute_time_s
            + execution.dram_time_s
            + execution.format_conversion_time_s
        )


    def test_compute_cycles_follow_mapping_utilization(self):
        op = GEMMOp("a", m=1000, n=65, k=37, activation_sparsity=0.5)
        for config in (FLEXIBLE, RIGID):
            execution = GEMMCycleModel(config).execute(op)
            work = op.effective_macs if config.supports_sparsity else op.macs
            expected = work / (config.macs_per_cycle(op.precision) * mapping_utilization(op, config))
            assert execution.compute_cycles == pytest.approx(expected * (1.0 + config.pipeline_overhead))
            assert execution.utilization == pytest.approx(mapping_utilization(op, config))


class TestMemoryTraffic:
    def test_compression_reduces_weight_traffic(self):
        op = GEMMOp("a", m=1000, n=256, k=256, weight_sparsity=0.8)
        compressed = MemoryTrafficModel(compression_enabled=True).traffic(op)
        dense = MemoryTrafficModel(compression_enabled=False).traffic(op)
        assert compressed.weight_bytes < dense.weight_bytes
        assert compressed.weight_format is not SparsityFormat.NONE

    def test_resident_activations_cost_nothing(self):
        op = GEMMOp("a", m=100000, n=64, k=64, activations_from_dram=False)
        report = MemoryTrafficModel().traffic(op)
        assert report.activation_bytes == 0.0

    def test_dram_activations_counted(self):
        op = GEMMOp("a", m=100000, n=64, k=64, activations_from_dram=True)
        report = MemoryTrafficModel().traffic(op)
        assert report.activation_bytes > 0.0

    def test_weights_refetched_when_exceeding_buffer(self):
        small_buffer = MemoryTrafficModel(
            weight_buffer=SRAMMacro("tiny", capacity_bytes=1 << 10)
        )
        op = GEMMOp("a", m=10000, n=256, k=256)
        report = small_buffer.traffic(op, tiles_m=100)
        single = MemoryTrafficModel().traffic(op, tiles_m=100)
        assert report.weight_bytes > single.weight_bytes

    def test_transfer_time_and_energy_positive(self):
        op = GEMMOp("a", m=100, n=256, k=256, outputs_to_dram=True)
        model = MemoryTrafficModel()
        report = model.traffic(op)
        assert model.transfer_time_s(report) > 0
        assert model.transfer_energy_j(report) > 0


class TestTrace:
    def _record(self, name, category, time_s, **kwargs):
        return OpRecord(name=name, category=category, time_s=time_s, energy_j=time_s, **kwargs)

    def test_breakdown_fractions_sum_to_one(self):
        trace = ExecutionTrace(device="x", model_name="m")
        trace.add(self._record("g", OpCategory.GEMM, 3.0))
        trace.add(self._record("e", OpCategory.ENCODING, 1.0))
        breakdown = trace.runtime_breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown[OpCategory.GEMM] == pytest.approx(0.75)

    def test_empty_trace(self):
        trace = ExecutionTrace(device="x", model_name="m")
        assert trace.total_time_s == 0.0
        assert all(v == 0.0 for v in trace.runtime_breakdown().values())

    def test_time_by_component_splits_records(self):
        trace = ExecutionTrace(device="x", model_name="m")
        trace.add(self._record(
            "g", OpCategory.GEMM, 4.0, compute_time_s=2.0, dram_time_s=1.0,
            format_conversion_time_s=0.5,
        ))
        trace.add(self._record("e", OpCategory.ENCODING, 1.0, compute_time_s=1.0))
        assert trace.time_by_component() == pytest.approx(
            {"compute": 3.0, "dram": 1.0, "format_conversion": 0.5, "other": 0.5}
        )
