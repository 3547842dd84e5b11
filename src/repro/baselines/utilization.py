"""Frame model shared by the NVDLA and TPU baselines.

The paper analyses NVDLA and the TPU only through their MAC utilisation
(Fig. 4); to make them first-class sweep citizens we extend that analysis
to a full frame: every GEMM runs at ``peak * structural utilisation``
(zeros cannot be skipped, so sparsity never helps), and encoding / misc
work falls back to a narrow vector datapath, since neither device has a
NeRF encoding engine.
"""

from __future__ import annotations

from repro.core.device import Device
from repro.hw.cost import PowerReport
from repro.hw.dram import LPDDR4_XAVIER
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Op, OpCategory
from repro.validate import require_positive
from repro.sim.trace import OpRecord
from repro.sparse.formats import Precision


class UtilizationDevice(Device):
    """A dense MAC array at a fixed clock and typical power.

    Subclasses hold the geometry behind :attr:`num_macs` and
    :meth:`gemm_utilization`.  There is a power model but no area model.
    """

    supports_precision = False
    supports_pruning = False
    supports_batching = False
    native_precision = Precision.INT8

    #: Fraction of peak throughput available to non-GEMM (fallback) work.
    FALLBACK_THROUGHPUT_FRACTION = 0.02
    #: Fraction of peak power drawn while stalled on memory.
    IDLE_POWER_FRACTION = 0.3
    #: Off-chip memory interface (an edge SoC's LPDDR4).
    dram = LPDDR4_XAVIER

    def __init__(self, frequency_hz: float, typical_power_w: float) -> None:
        """Validate and record the array's clock and typical power."""
        self.frequency_hz = require_positive("frequency_hz", frequency_hz)
        self.typical_power_w = require_positive("typical_power_w", typical_power_w)

    def _fingerprint_state(self) -> dict:
        """Operating point, memory interface and fallback constants."""
        return {
            "frequency_hz": self.frequency_hz,
            "typical_power_w": self.typical_power_w,
            "dram": self.dram,
            "fallback_fraction": self.FALLBACK_THROUGHPUT_FRACTION,
            "idle_power_fraction": self.IDLE_POWER_FRACTION,
        }

    @property
    def num_macs(self) -> int:
        """MAC units in the array."""
        raise NotImplementedError

    def gemm_utilization(self, m: int, n: int, k: int, density: float = 1.0) -> float:
        """Structural MAC utilisation of an (M, N, K) GEMM."""
        raise NotImplementedError

    def power(self, precision: Precision | None = None) -> PowerReport:
        """Typical power of the operating point (precision is fixed)."""
        return PowerReport().add("typical", self.typical_power_w)

    def _op_record(self, op: Op, precision: Precision | None) -> OpRecord:
        """Cost one op from its utilisation and DRAM transfer time."""
        peak_macs_per_s = self.num_macs * self.frequency_hz
        fallback = peak_macs_per_s * 2.0 * self.FALLBACK_THROUGHPUT_FRACTION
        if isinstance(op, GEMMOp):
            # The dense schedule (density 1) determines the cycle count.
            utilization = self.gemm_utilization(op.m, op.n, op.k)
            compute_time = op.macs / (peak_macs_per_s * utilization)
            dram_bytes = (op.m * op.k + op.k * op.n + op.m * op.n) * 1.0 * op.count
            category = OpCategory.GEMM
        elif isinstance(op, EncodingOp):
            utilization = self.FALLBACK_THROUGHPUT_FRACTION
            compute_time = op.flops / fallback
            dram_bytes = op.memory_bytes
            category = OpCategory.ENCODING
        elif isinstance(op, MiscOp):
            utilization = self.FALLBACK_THROUGHPUT_FRACTION
            compute_time = op.flops * op.count / fallback
            dram_bytes = op.memory_bytes * op.count
            category = OpCategory.OTHER
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown op type {type(op)!r}")
        memory_time = self.dram.transfer_time_s(dram_bytes)
        time_s = max(compute_time, memory_time)
        idle = self.IDLE_POWER_FRACTION * self.typical_power_w
        power = idle + (self.typical_power_w - idle) * min(utilization, 1.0)
        return OpRecord(
            name=op.name,
            category=category,
            time_s=time_s,
            energy_j=power * time_s + self.dram.transfer_energy_j(dram_bytes),
            compute_time_s=compute_time,
            dram_time_s=max(0.0, time_s - compute_time),
            dram_bytes=dram_bytes,
            utilization=utilization,
        )
