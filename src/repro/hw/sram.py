"""CACTI-like SRAM macro model.

The paper uses a memory compiler for on-chip buffers (2 MB input, 2 MB output,
512 KB weight, 512 KB encoding buffers, 16 KB program memory) and CACTI for
NoC-related SRAM energy.  This module provides a first-order analytical model
with the usual CACTI scaling behaviour: area grows linearly with capacity
(plus peripheral overhead), access energy grows roughly with the square root
of capacity, and leakage scales with capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.validate import require_count


@dataclass(frozen=True)
class SRAMMacro:
    """An on-chip SRAM buffer of ``capacity_bytes`` with ``width_bits`` ports."""

    name: str
    capacity_bytes: int
    width_bits: int = 128
    banks: int = 1

    # Calibration constants for a 28 nm memory compiler.
    AREA_PER_BYTE_UM2 = 0.62          # bit-cell + local periphery
    PERIPHERY_UM2_PER_BANK = 8200.0   # decoders, sense-amps, IO per bank
    ENERGY_PER_BIT_BASE_PJ = 0.018    # read energy per bit at 32 KB reference
    REFERENCE_CAPACITY = 32 * 1024
    LEAKAGE_MW_PER_MB = 1.9

    def __post_init__(self) -> None:
        require_count("SRAM capacity_bytes", self.capacity_bytes, 1)
        require_count("SRAM width_bits", self.width_bits, 1)
        require_count("SRAM banks", self.banks, 1)

    @property
    def area_um2(self) -> float:
        """Macro area including per-bank peripheral overhead."""
        return (
            self.capacity_bytes * self.AREA_PER_BYTE_UM2
            + self.banks * self.PERIPHERY_UM2_PER_BANK
        )

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6

    @property
    def energy_per_bit_pj(self) -> float:
        """Dynamic read/write energy per bit (CACTI-like sqrt scaling)."""
        bank_capacity = self.capacity_bytes / self.banks
        scale = math.sqrt(max(bank_capacity, 1.0) / self.REFERENCE_CAPACITY)
        return self.ENERGY_PER_BIT_BASE_PJ * scale

    def access_energy_j(self, bits: float) -> float:
        """Energy in joules to move ``bits`` through this macro."""
        return bits * self.energy_per_bit_pj * 1e-12

    @property
    def leakage_w(self) -> float:
        """Static power of the macro."""
        return self.LEAKAGE_MW_PER_MB * (self.capacity_bytes / (1 << 20)) * 1e-3

    def dynamic_power_w(self, utilisation: float, frequency_hz: float) -> float:
        """Average dynamic power when accessed ``utilisation`` of cycles."""
        if not 0.0 <= utilisation <= 1.0:
            raise ValueError("utilisation must be in [0, 1]")
        bits_per_second = utilisation * self.width_bits * frequency_hz
        return self.access_energy_j(bits_per_second)

    def power_w(self, utilisation: float, frequency_hz: float) -> float:
        """Total (dynamic + leakage) power."""
        return self.dynamic_power_w(utilisation, frequency_hz) + self.leakage_w
