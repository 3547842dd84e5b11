"""Off-chip DRAM specifications and energy model.

FlexNeRFer attaches 8 GB of LPDDR3-1600 (paper Fig. 14); the GPU baselines use
GDDR6 and the edge GPUs use LPDDR4 (paper Table 1).  The energy-per-bit
constants follow widely used published estimates for each interface class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.validate import require_positive


@dataclass(frozen=True)
class DRAMSpec:
    """Bandwidth / energy characteristics of an off-chip memory interface."""

    name: str
    bandwidth_gbps: float          # GB/s of peak sequential bandwidth
    energy_per_bit_pj: float       # access energy per bit (interface + array)
    capacity_gb: float = 8.0
    background_power_w: float = 0.15

    def __post_init__(self) -> None:
        require_positive(f"{self.name} bandwidth_gbps", self.bandwidth_gbps)
        require_positive(f"{self.name} energy_per_bit_pj", self.energy_per_bit_pj)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9

    def transfer_time_s(self, num_bytes: float) -> float:
        """Time to transfer ``num_bytes`` at peak bandwidth."""
        return _byte_count(num_bytes) / self.bandwidth_bytes_per_s

    def transfer_energy_j(self, num_bytes: float) -> float:
        """Energy to transfer ``num_bytes``."""
        return _byte_count(num_bytes) * 8.0 * self.energy_per_bit_pj * 1e-12


def _byte_count(num_bytes: float) -> float:
    """Return ``num_bytes`` if it is a finite, non-negative byte count."""
    if not (math.isfinite(num_bytes) and num_bytes >= 0):
        raise ValueError(f"byte count must be finite and non-negative, got {num_bytes!r}")
    return num_bytes


#: FlexNeRFer / NeuRex local DRAM (paper Fig. 14): LPDDR3-1600, 12.8 GB/s.
LPDDR3 = DRAMSpec(name="LPDDR3-1600", bandwidth_gbps=12.8, energy_per_bit_pj=40.0)

#: Edge GPU memories (paper Table 1).
LPDDR4_NANO = DRAMSpec(name="LPDDR4 (Jetson Nano)", bandwidth_gbps=25.6, energy_per_bit_pj=32.0, capacity_gb=4.0)
LPDDR4_XAVIER = DRAMSpec(name="LPDDR4 (Xavier NX)", bandwidth_gbps=59.7, energy_per_bit_pj=32.0)

#: Desktop GPU memories (paper Table 1).
GDDR6_2080TI = DRAMSpec(name="GDDR6 (RTX 2080 Ti)", bandwidth_gbps=616.0, energy_per_bit_pj=16.0, capacity_gb=11.0)
GDDR6_4090 = DRAMSpec(name="GDDR6X (RTX 4090)", bandwidth_gbps=1150.0, energy_per_bit_pj=14.0, capacity_gb=24.0)
