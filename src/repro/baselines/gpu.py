"""Roofline-style GPU model (RTX 2080 Ti, RTX 4090, Jetson Xavier NX / Nano).

The paper measures the seven NeRF models on an RTX 2080 Ti (Fig. 1 / Fig. 3)
and uses it as the reference for every speedup / energy-efficiency gain
(Fig. 19 / Fig. 20).  We substitute a roofline model: each operation runs at
the lesser of its compute-limited and bandwidth-limited rate, with a
GEMM-size-dependent efficiency factor that captures how poorly small, narrow
NeRF MLP layers utilise a large GPU.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.dram import (
    DRAMSpec,
    GDDR6_2080TI,
    GDDR6_4090,
    LPDDR4_NANO,
    LPDDR4_XAVIER,
)
from repro.core.device import Device
from repro.hw.cost import AreaReport, PowerReport
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Op, OpCategory
from repro.sim.trace import OpRecord
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class GPUSpec:
    """Published characteristics of a GPU device (paper Table 1)."""

    name: str
    peak_fp32_tflops: float
    area_mm2: float
    typical_power_w: float
    dram: DRAMSpec
    process_nm: float
    frequency_ghz: float

    @property
    def peak_flops(self) -> float:
        return self.peak_fp32_tflops * 1e12


RTX_2080_TI = GPUSpec(
    name="RTX 2080 Ti",
    peak_fp32_tflops=13.45,
    area_mm2=754.0,
    typical_power_w=250.0,
    dram=GDDR6_2080TI,
    process_nm=12.0,
    frequency_ghz=1.4,
)

RTX_4090 = GPUSpec(
    name="RTX 4090",
    peak_fp32_tflops=82.6,
    area_mm2=609.0,
    typical_power_w=350.0,
    dram=GDDR6_4090,
    process_nm=5.0,
    frequency_ghz=2.3,
)

JETSON_NANO = GPUSpec(
    name="Jetson Nano",
    peak_fp32_tflops=0.47,
    area_mm2=118.0,
    typical_power_w=10.0,
    dram=LPDDR4_NANO,
    process_nm=20.0,
    frequency_ghz=0.9,
)

XAVIER_NX = GPUSpec(
    name="Xavier NX",
    peak_fp32_tflops=1.69,
    area_mm2=350.0,
    typical_power_w=15.0,
    dram=LPDDR4_XAVIER,
    process_nm=12.0,
    frequency_ghz=1.1,
)


class GPUModel(Device):
    """Roofline execution model for one GPU.  FP32 only; unsupported knobs raise."""

    supports_precision = False
    supports_pruning = False
    supports_batching = True
    native_precision = None
    # CUDA kernels overlap poorly across frames; batching mostly saves
    # per-launch overheads, a small fraction of a NeRF frame.
    batch_marginal_latency = 0.9
    batch_marginal_energy = 0.95

    #: Best-case fraction of peak FLOPs achieved on large, regular GEMMs.
    #: NeRF inference kernels are small and launch-bound, so even the widest
    #: layers stay well below the GPU's peak (consistent with the measured
    #: frame times behind paper Fig. 1).
    MAX_GEMM_EFFICIENCY = 0.28
    #: Floor on GEMM efficiency for tiny, irregular layers.
    MIN_GEMM_EFFICIENCY = 0.05
    #: Dimension (elements) at which a GEMM dimension stops limiting efficiency.
    SATURATION_DIM = 512
    #: Compute efficiency of encoding kernels (gather / trig heavy).
    ENCODING_EFFICIENCY = 0.015
    #: Effective bandwidth fraction for scattered table lookups.
    GATHER_BANDWIDTH_FRACTION = 0.12
    #: Compute efficiency of miscellaneous kernels (sampling, compositing).
    MISC_EFFICIENCY = 0.18
    #: Bytes per element the GPU actually moves (FP32 activations / weights).
    BYTES_PER_ELEMENT = 4.0
    #: Fraction of the typical board power drawn while kernels idle on memory.
    IDLE_POWER_FRACTION = 0.35

    def __init__(self, spec: GPUSpec = RTX_2080_TI) -> None:
        self.spec = spec
        self.name = spec.name

    def _fingerprint_state(self) -> dict:
        """The GPU spec sheet (peak FLOPS, power, memory interface)."""
        return {"spec": self.spec}

    def area(self) -> AreaReport:
        """Die area from the GPU's spec sheet."""
        return AreaReport().add("die", self.spec.area_mm2)

    def power(self, precision: Precision | None = None) -> PowerReport:
        """Typical board power from the GPU's spec sheet."""
        return PowerReport().add("board", self.spec.typical_power_w)

    def _effective_power_w(self, efficiency: float) -> float:
        """Board power under a workload achieving ``efficiency`` of peak.

        Small launch-bound NeRF kernels never pull the full typical board
        power; power scales between an idle floor and the typical draw with
        the achieved compute efficiency.
        """
        idle = self.IDLE_POWER_FRACTION * self.spec.typical_power_w
        return idle + (self.spec.typical_power_w - idle) * min(
            efficiency / self.MAX_GEMM_EFFICIENCY, 1.0
        )

    def gemm_efficiency(self, op: GEMMOp) -> float:
        """GEMM-size-dependent fraction of peak FLOPs achieved."""
        n_factor = min(1.0, op.n / self.SATURATION_DIM) ** 0.5
        k_factor = min(1.0, op.k / self.SATURATION_DIM) ** 0.5
        efficiency = self.MAX_GEMM_EFFICIENCY * n_factor * k_factor
        return max(self.MIN_GEMM_EFFICIENCY, efficiency)

    # -- frame execution ----------------------------------------------------------

    def _op_record(self, op: Op, precision: Precision | None) -> OpRecord:
        """Roofline time and board energy of one FP32 kernel.

        The kernel runs at the lesser of its compute- and bandwidth-limited
        rates; GPUs gain nothing from sparsity.
        """
        dram = self.spec.dram
        if isinstance(op, GEMMOp):
            efficiency = self.gemm_efficiency(op)
            compute_time = op.flops / (self.spec.peak_flops * efficiency)
            dram_bytes = (
                (op.m * op.k + op.k * op.n + op.m * op.n)
                * self.BYTES_PER_ELEMENT
                * op.count
            )
            memory_time = dram.transfer_time_s(dram_bytes)
            category = OpCategory.GEMM
        elif isinstance(op, EncodingOp):
            efficiency = self.ENCODING_EFFICIENCY
            compute_time = op.flops / (self.spec.peak_flops * efficiency)
            dram_bytes = op.memory_bytes
            memory_time = dram.transfer_time_s(dram_bytes) / self.GATHER_BANDWIDTH_FRACTION
            category = OpCategory.ENCODING
        elif isinstance(op, MiscOp):
            efficiency = self.MISC_EFFICIENCY
            compute_time = op.flops * op.count / (self.spec.peak_flops * efficiency)
            dram_bytes = op.memory_bytes * op.count
            memory_time = dram.transfer_time_s(dram_bytes)
            category = OpCategory.OTHER
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op type {type(op)!r}")
        time_s = max(compute_time, memory_time)
        power = self._effective_power_w(efficiency)
        return OpRecord(
            name=op.name,
            category=category,
            time_s=time_s,
            energy_j=power * time_s + dram.transfer_energy_j(dram_bytes),
            compute_time_s=time_s,
            dram_bytes=dram_bytes,
        )
