"""The FlexNeRFer accelerator: hardware cost and frame-level performance.

Combines the GEMM/GEMV acceleration unit (MAC array + flexible NoC + format
codec), the NeRF encoding unit, the RISC-V controller, the DMA engine and the
on-chip buffers into one model that can

* report chip-level area and power breakdowns (paper Fig. 16 / Fig. 17), and
* estimate the latency and energy of rendering one frame of any NeRF workload
  (paper Fig. 18 - Fig. 20).
"""

from __future__ import annotations

from repro.core.config import FlexNeRFerConfig
from repro.core.controller import DMAEngine, RISCVController
from repro.core.device import PRECISION_MODES, Device
from repro.core.encoding_unit import NeRFEncodingUnit
from repro.core.mac_array import MACArray
from repro.hw.cost import AreaReport, PowerReport
from repro.hw.sram import SRAMMacro
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Op, OpCategory, Workload
from repro.sim.engine import GEMMCycleModel
from repro.sim.memory import MemoryTrafficModel
from repro.sim.trace import OpRecord
from repro.sparse.formats import Precision


#: Fraction of peak GEMM throughput available to miscellaneous vector work
#: (ray sampling, volume rendering) executed on the array's vector datapath.
MISC_THROUGHPUT_FRACTION = 0.25


class FlexNeRFer(Device):
    """Top-level accelerator model: precision-scalable and sparsity-aware."""

    name = "FlexNeRFer"
    supports_precision = True
    supports_pruning = True
    supports_batching = True
    native_precision = Precision.INT16
    # Weights, format metadata and the hash-encoding tables stay resident
    # across co-scheduled frames, so extra frames of a batch skip most DRAM
    # setup traffic.
    batch_marginal_latency = 0.6
    batch_marginal_energy = 0.75

    def __init__(self, config: FlexNeRFerConfig | None = None) -> None:
        self.config = config or FlexNeRFerConfig()
        self._mac_array = MACArray(
            rows=self.config.array_rows,
            cols=self.config.array_cols,
            frequency_hz=self.config.frequency_hz,
        )
        self._encoding_unit = NeRFEncodingUnit(
            frequency_hz=self.config.frequency_hz,
            buffer_bytes=self.config.encoding_buffer_bytes,
        )
        self._controller = RISCVController(
            program_memory_bytes=self.config.program_memory_bytes
        )
        self._dma = DMAEngine(dram=self.config.dram, frequency_hz=self.config.frequency_hz)
        self._buffers = {
            "input_buffer": SRAMMacro("input-buffer", self.config.input_buffer_bytes, banks=8),
            "output_buffer": SRAMMacro("output-buffer", self.config.output_buffer_bytes, banks=8),
            "weight_buffer": SRAMMacro("weight-buffer", self.config.weight_buffer_bytes, banks=4),
        }
        self._memory_model = MemoryTrafficModel(
            dram=self.config.dram,
            weight_buffer=self._buffers["weight_buffer"],
            activation_buffer=self._buffers["input_buffer"],
            compression_enabled=True,
        )
        self._cycle_model = GEMMCycleModel(
            self._mac_array.array_config(self.config.format_conversion_overhead),
            memory=self._memory_model,
        )
        # Chip power is a per-frame constant of each precision mode; costing
        # it once here keeps it out of the per-op loop.
        self._chip_power_w = {p: self.power(p).total_w for p in PRECISION_MODES}

    def _fingerprint_state(self) -> dict:
        """The full accelerator config (array, buffers, DRAM, overheads)."""
        return {"config": self.config}

    def effective_precision(self, precision: Precision | None) -> Precision | None:
        """Default the precision knob to the config's precision mode."""
        return precision or self.config.default_precision

    # -- hardware cost ---------------------------------------------------------

    def area(self) -> AreaReport:
        """Chip-level area breakdown in mm^2 (paper Fig. 16(a) / Fig. 17(a))."""
        report = AreaReport()
        for block, value in self._mac_array.area().breakdown.items():
            report.add(f"gemm_unit/{block}", value)
        report.add("encoding_unit", self._encoding_unit.area_mm2())
        buffers_mm2 = sum(macro.area_mm2 for macro in self._buffers.values())
        report.add("buffers", buffers_mm2)
        report.add("controller", self._controller.cost().area_um2 / 1e6)
        report.add("dma", self._dma.cost().area_um2 / 1e6)
        # System bus, high-speed I/O pads and top-level integration glue.
        report.add("io_and_bus", 2.9)
        return report

    def power(self, precision: Precision | None = None) -> PowerReport:
        """Chip-level power breakdown in watts (paper Fig. 16(b) / Fig. 17(b))."""
        precision = precision or self.config.default_precision
        report = PowerReport()
        for block, value in self._mac_array.power(precision).breakdown.items():
            report.add(f"gemm_unit/{block}", value)
        report.add("encoding_unit", self._encoding_unit.power_w())
        buffer_w = sum(
            macro.power_w(utilisation=0.5, frequency_hz=self.config.frequency_hz)
            for macro in self._buffers.values()
        )
        report.add("buffers", buffer_w)
        report.add("controller", self._controller.cost().power_mw / 1e3)
        report.add("dma", self._dma.cost().power_mw / 1e3)
        report.add("io_and_bus", 0.45)
        # LPDDR3 PHY + wider on-chip fetch datapaths at lower precision.
        dram_interface_w = {
            Precision.INT16: 1.20,
            Precision.INT8: 1.45,
            Precision.INT4: 1.85,
        }
        report.add("dram_interface", dram_interface_w[precision])
        return report

    # -- frame execution ------------------------------------------------------------

    def _prepare(
        self, workload: Workload, precision: Precision | None, pruning_ratio: float
    ) -> tuple[Workload, Precision]:
        """Re-express the workload's GEMMs at ``precision`` and prune them."""
        precision = precision or self.config.default_precision
        prepared = workload.with_precision(precision)
        if pruning_ratio > 0.0:
            prepared = prepared.pruned(pruning_ratio)
        return prepared, precision

    def _op_record(self, op: Op, precision: Precision) -> OpRecord:
        """Run encodings on the encoding unit, GEMMs on the MAC array through
        the flexible NoC, and miscellaneous work on the array's vector datapath.
        """
        chip_power = self._chip_power_w[precision]
        if isinstance(op, GEMMOp):
            return self._run_gemm(op, chip_power)
        if isinstance(op, EncodingOp):
            return self._run_encoding(op, chip_power)
        if isinstance(op, MiscOp):
            return self._run_misc(op, precision, chip_power)
        raise TypeError(f"unknown op type {type(op)!r}")

    # -- per-op execution --------------------------------------------------------------

    def _run_gemm(self, op: GEMMOp, chip_power_w: float) -> OpRecord:
        execution = self._cycle_model.execute(op)
        time_s = execution.total_time_s
        dram_energy = self._memory_model.transfer_energy_j(execution.traffic)
        compute_energy = chip_power_w * (
            execution.compute_time_s + execution.format_conversion_time_s
        )
        idle_energy = 0.25 * chip_power_w * execution.dram_time_s
        return OpRecord(
            name=op.name,
            category=OpCategory.GEMM,
            time_s=time_s,
            energy_j=compute_energy + dram_energy + idle_energy,
            compute_time_s=execution.compute_time_s,
            dram_time_s=execution.dram_time_s,
            format_conversion_time_s=execution.format_conversion_time_s,
            dram_bytes=execution.traffic.total_bytes,
            utilization=execution.utilization,
        )

    def _run_encoding(self, op: EncodingOp, chip_power_w: float) -> OpRecord:
        timing = self._encoding_unit.timing(op)
        dram_bytes = op.dram_bytes
        dram_time = self.config.dram.transfer_time_s(dram_bytes)
        time_s = timing.time_s + dram_time
        energy = (
            self._encoding_unit.power_w() * timing.time_s
            + self.config.dram.transfer_energy_j(dram_bytes)
            + 0.15 * chip_power_w * time_s
        )
        return OpRecord(
            name=op.name,
            category=OpCategory.ENCODING,
            time_s=time_s,
            energy_j=energy,
            compute_time_s=timing.time_s,
            dram_time_s=dram_time,
            dram_bytes=dram_bytes,
        )

    def _run_misc(self, op: MiscOp, precision: Precision, chip_power_w: float) -> OpRecord:
        vector_throughput = (
            self._mac_array.peak_tops(precision) * 1e12 * MISC_THROUGHPUT_FRACTION
        )
        time_s = op.flops * op.count / vector_throughput
        return OpRecord(
            name=op.name,
            category=OpCategory.OTHER,
            time_s=time_s,
            energy_j=0.4 * chip_power_w * time_s,
            compute_time_s=time_s,
        )
