"""NeuRex accelerator model (Lee et al., ISCA 2023) -- the SOTA NeRF baseline.

NeuRex accelerates Instant-NGP with a hash encoding engine and a dense INT16
MLP engine.  Compared with FlexNeRFer it lacks: bit-scalability, sparsity
support (so structured pruning does not help it, Fig. 19), a flexible NoC
(so irregular layers leave its systolic MAC array under-utilised), and
sparsity-aware data compression.  Published implementation cost: 22.8 mm^2
and 5.1 W in the same 28 nm node (paper Fig. 16 / Fig. 17).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.accelerator import MISC_THROUGHPUT_FRACTION
from repro.core.device import Device
from repro.core.encoding_unit import HashEncodingEngine, PositionalEncodingEngine
from repro.hw.cost import AreaReport, PowerReport
from repro.hw.dram import DRAMSpec, LPDDR3
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Op, OpCategory, Workload
from repro.sim.array_config import ArrayConfig
from repro.sim.engine import GEMMCycleModel
from repro.sim.memory import MemoryTrafficModel
from repro.sim.trace import OpRecord
from repro.sparse.formats import Precision

#: Published implementation cost of NeuRex at 28 nm.
NEUREX_AREA_MM2 = 22.8
NEUREX_POWER_W = 5.1


@dataclass(frozen=True)
class NeuRexConfig:
    """Configuration of the NeuRex model."""

    array_rows: int = 64
    array_cols: int = 64
    frequency_hz: float = 800e6
    dram: DRAMSpec = LPDDR3
    #: NeuRex's encoding engine is specialised for hash encoding; positional
    #: encodings fall back to a narrower general-purpose datapath.
    pee_lanes: int = 16
    hee_units: int = 64


class NeuRex(Device):
    """Frame-level performance / cost model of NeuRex.

    NeuRex computes densely at INT16 only, so its capability flags are
    False -- but the knobs are *accepted and ignored* rather than raising:
    sweeping pruning over NeuRex and seeing flat gains is exactly the
    comparison Fig. 19 makes.
    """

    name = "NeuRex"
    supports_precision = False
    supports_pruning = False
    supports_batching = True
    native_precision = Precision.INT16
    # Dense INT16 pipeline: batching only amortizes weight refetch, not the
    # (dominant) dense compute, so the marginal frame stays expensive.
    batch_marginal_latency = 0.8
    batch_marginal_energy = 0.9

    def __init__(self, config: NeuRexConfig | None = None) -> None:
        self.config = config or NeuRexConfig()
        array_config = ArrayConfig(
            name="neurex-mlp-engine",
            rows=self.config.array_rows,
            cols=self.config.array_cols,
            frequency_hz=self.config.frequency_hz,
            base_precision=Precision.INT16,
            bit_scalable=False,
            supports_sparsity=False,
        )
        self._memory = MemoryTrafficModel(
            dram=self.config.dram, compression_enabled=False
        )
        self._cycle_model = GEMMCycleModel(array_config, memory=self._memory)
        self._hee = HashEncodingEngine(
            num_units=self.config.hee_units, frequency_hz=self.config.frequency_hz
        )
        self._pee = PositionalEncodingEngine(
            num_lanes=self.config.pee_lanes, frequency_hz=self.config.frequency_hz
        )
        self._chip_power_w = self.power().total_w

    def _fingerprint_state(self) -> dict:
        """The NeuRex config (array geometry, encoding engine, DRAM)."""
        return {"config": self.config}

    # -- hardware cost -----------------------------------------------------------

    def area(self) -> AreaReport:
        """Published area, with an approximate block breakdown (Fig. 17(a))."""
        report = AreaReport()
        report.add("mlp_engine", NEUREX_AREA_MM2 * 0.52)
        report.add("hash_encoding_engine", NEUREX_AREA_MM2 * 0.18)
        report.add("buffers", NEUREX_AREA_MM2 * 0.22)
        report.add("control_and_io", NEUREX_AREA_MM2 * 0.08)
        return report

    def power(self, precision: Precision | None = None) -> PowerReport:
        """Published power (INT16 only, so ``precision`` is ignored), broken down."""
        report = PowerReport()
        report.add("mlp_engine", NEUREX_POWER_W * 0.58)
        report.add("hash_encoding_engine", NEUREX_POWER_W * 0.14)
        report.add("buffers", NEUREX_POWER_W * 0.18)
        report.add("control_and_io", NEUREX_POWER_W * 0.10)
        return report

    @property
    def peak_tops(self) -> float:
        return (
            2.0
            * self.config.array_rows
            * self.config.array_cols
            * self.config.frequency_hz
            / 1e12
        )

    # -- frame execution ------------------------------------------------------------

    def _prepare(
        self, workload: Workload, precision: Precision | None, pruning_ratio: float
    ) -> tuple[Workload, Precision]:
        """Run the workload as is: NeuRex ignores both knobs.

        NeuRex only computes at INT16 and cannot skip pruned weights or sparse
        activations, so ``precision`` and ``pruning_ratio`` do not change its
        latency -- exactly the flat behaviour of Fig. 19.
        """
        return workload, Precision.INT16

    def _op_record(self, op: Op, precision: Precision) -> OpRecord:
        """Dispatch one op to the MLP engine, an encoding engine or the vector path."""
        if isinstance(op, GEMMOp):
            return self._run_gemm(op)
        if isinstance(op, EncodingOp):
            return self._run_encoding(op)
        if isinstance(op, MiscOp):
            return self._run_misc(op)
        raise TypeError(f"unknown op type {type(op)!r}")

    def _run_gemm(self, op: GEMMOp) -> OpRecord:
        # NeuRex always computes densely at INT16.
        chip_power_w = self._chip_power_w
        dense_op = op.with_precision(Precision.INT16)
        execution = self._cycle_model.execute(dense_op)
        dram_energy = self._memory.transfer_energy_j(execution.traffic)
        energy = chip_power_w * execution.compute_time_s + dram_energy
        energy += 0.25 * chip_power_w * execution.dram_time_s
        return OpRecord(
            name=op.name,
            category=OpCategory.GEMM,
            time_s=execution.total_time_s,
            energy_j=energy,
            compute_time_s=execution.compute_time_s,
            dram_time_s=execution.dram_time_s,
            dram_bytes=execution.traffic.total_bytes,
            utilization=execution.utilization,
        )

    def _run_encoding(self, op: EncodingOp) -> OpRecord:
        engine = self._hee if op.kind == "hash" else self._pee
        timing = engine.timing(op)
        dram_bytes = op.dram_bytes
        dram_time = self.config.dram.transfer_time_s(dram_bytes)
        time_s = timing.time_s + dram_time
        energy = 0.3 * self._chip_power_w * time_s
        energy += self.config.dram.transfer_energy_j(dram_bytes)
        return OpRecord(
            name=op.name,
            category=OpCategory.ENCODING,
            time_s=time_s,
            energy_j=energy,
            compute_time_s=timing.time_s,
            dram_time_s=dram_time,
            dram_bytes=dram_bytes,
        )

    def _run_misc(self, op: MiscOp) -> OpRecord:
        vector_throughput = self.peak_tops * 1e12 * MISC_THROUGHPUT_FRACTION
        time_s = op.flops * op.count / vector_throughput
        return OpRecord(
            name=op.name,
            category=OpCategory.OTHER,
            time_s=time_s,
            energy_j=0.4 * self._chip_power_w * time_s,
            compute_time_s=time_s,
        )
