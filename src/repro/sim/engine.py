"""Cycle model for GEMM execution on a configurable MAC array."""

from __future__ import annotations

from dataclasses import dataclass

from repro.nerf.workload import GEMMOp
from repro.sim.array_config import ArrayConfig
from repro.sim.memory import MemoryTrafficModel, TrafficReport
from repro.sim.tiling import tile_counts
from repro.sim.utilization import mapping_utilization


@dataclass
class GEMMExecution:
    """Timing result of executing one GEMM on an array."""

    op_name: str
    compute_cycles: float
    format_conversion_cycles: float
    dram_time_s: float
    utilization: float
    effective_macs: float
    traffic: TrafficReport
    frequency_hz: float

    @property
    def compute_time_s(self) -> float:
        return self.compute_cycles / self.frequency_hz

    @property
    def format_conversion_time_s(self) -> float:
        return self.format_conversion_cycles / self.frequency_hz

    @property
    def total_time_s(self) -> float:
        """End-to-end time of the op.

        The accelerators modelled here stream operands from a narrow LPDDR3
        interface, so DRAM access is only partially hidden behind compute; the
        model follows the paper's latency-breakdown structure (Fig. 18(a)) and
        accounts compute, DRAM access and format conversion additively.
        """
        return self.compute_time_s + self.dram_time_s + self.format_conversion_time_s


class GEMMCycleModel:
    """Computes cycles / time / traffic of GEMM ops for one array config."""

    def __init__(
        self,
        config: ArrayConfig,
        memory: MemoryTrafficModel | None = None,
    ) -> None:
        self.config = config
        self.memory = memory or MemoryTrafficModel(
            compression_enabled=config.supports_sparsity
        )

    def execute(self, op: GEMMOp) -> GEMMExecution:
        """Model the execution of a single GEMM op."""
        config = self.config
        grid = tile_counts(op, config)
        macs_per_cycle = config.macs_per_cycle(op.precision)

        # A sparsity-aware array skips the zero products; a rigid one computes
        # every MAC.
        work_macs = op.effective_macs if config.supports_sparsity else op.macs
        utilization = max(mapping_utilization(op, config), 1e-6)
        compute_cycles = work_macs / (macs_per_cycle * utilization)
        compute_cycles *= 1.0 + config.pipeline_overhead

        format_cycles = compute_cycles * config.format_conversion_overhead

        traffic = self.memory.traffic(op, tiles_m=grid.tiles_m, tiles_n=grid.tiles_n)
        dram_time = self.memory.transfer_time_s(traffic)

        return GEMMExecution(
            op_name=op.name,
            compute_cycles=compute_cycles,
            format_conversion_cycles=format_cycles,
            dram_time_s=dram_time,
            utilization=utilization,
            effective_macs=op.effective_macs,
            traffic=traffic,
            frequency_hz=config.frequency_hz,
        )
