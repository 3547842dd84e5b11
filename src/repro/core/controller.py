"""RISC-V controller and DMA engine models (paper Fig. 14).

The RISC-V controller decodes programs copied from the host and produces the
global control signals (tile descriptors, NoC routing configuration, format
encoder settings); it is modelled by its 28 nm area/power cost.  The DMA
engine moves data between host memory and the accelerator's local DRAM and is
modelled at the throughput level plus a 28 nm area/power cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.components import DEFAULT_LIBRARY, ComponentLibrary, ComponentSpec
from repro.hw.dram import DRAMSpec, LPDDR3
from repro.hw.sram import SRAMMacro


class RISCVController:
    """Single-issue control core with a 16 KB program memory."""

    def __init__(
        self,
        program_memory_bytes: int = 16 << 10,
        library: ComponentLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self.program_memory = SRAMMacro(
            "program-memory", capacity_bytes=program_memory_bytes, width_bits=32
        )
        self.library = library

    def cost(self) -> ComponentSpec:
        core = self.library.get("riscv_core")
        return ComponentSpec(
            name="riscv-controller",
            area_um2=core.area_um2 + self.program_memory.area_um2,
            power_mw=core.power_mw + self.program_memory.leakage_w * 1e3,
        )


@dataclass
class DMATransfer:
    """One host <-> local-DRAM transfer."""

    num_bytes: float
    direction: str = "host-to-local"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.num_bytes) and self.num_bytes >= 0):
            raise ValueError(
                f"transfer size must be non-negative and finite, got {self.num_bytes!r}"
            )
        if self.direction not in ("host-to-local", "local-to-host"):
            raise ValueError(f"unknown direction '{self.direction}'")


class DMAEngine:
    """Descriptor-based DMA engine feeding the local DRAM."""

    def __init__(
        self,
        dram: DRAMSpec = LPDDR3,
        setup_cycles: int = 32,
        frequency_hz: float = 800e6,
        library: ComponentLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self.dram = dram
        self.setup_cycles = setup_cycles
        self.frequency_hz = frequency_hz
        self.library = library
        self.completed: list[DMATransfer] = []

    def transfer_time_s(self, transfer: DMATransfer) -> float:
        """Setup latency plus streaming time at the DRAM interface bandwidth."""
        setup = self.setup_cycles / self.frequency_hz
        return setup + self.dram.transfer_time_s(transfer.num_bytes)

    def transfer_energy_j(self, transfer: DMATransfer) -> float:
        return self.dram.transfer_energy_j(transfer.num_bytes)

    def execute(self, transfer: DMATransfer) -> float:
        """Record a transfer and return its duration."""
        self.completed.append(transfer)
        return self.transfer_time_s(transfer)

    def cost(self) -> ComponentSpec:
        return self.library.get("dma_engine")
