"""Top-level configuration of the FlexNeRFer accelerator (paper Fig. 14)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hw.dram import DRAMSpec, LPDDR3
from repro.sparse.formats import Precision
from repro.validate import require_count, require_positive


@dataclass(frozen=True)
class FlexNeRFerConfig:
    """Static configuration of a FlexNeRFer instance."""

    array_rows: int = 64
    array_cols: int = 64
    frequency_hz: float = 800e6
    default_precision: Precision = Precision.INT16

    # On-chip buffers (paper Fig. 14).
    input_buffer_bytes: int = 2 << 20
    output_buffer_bytes: int = 2 << 20
    weight_buffer_bytes: int = 512 << 10
    encoding_buffer_bytes: int = 512 << 10
    program_memory_bytes: int = 16 << 10

    # Encoding unit sizing (Section 5.2).
    pee_lanes: int = 64
    hee_units: int = 64

    # Local memory.
    dram: DRAMSpec = field(default_factory=lambda: LPDDR3)

    # Fraction of total execution time spent on format conversion in 16-bit
    # mode (paper Fig. 18(a) reports 8.7 %); expressed as an overhead relative
    # to the compute time inside the cycle model.
    format_conversion_overhead: float = 0.095

    def __post_init__(self) -> None:
        for name in (
            "array_rows",
            "array_cols",
            "input_buffer_bytes",
            "output_buffer_bytes",
            "weight_buffer_bytes",
            "encoding_buffer_bytes",
            "program_memory_bytes",
            "pee_lanes",
            "hee_units",
        ):
            require_count(name, getattr(self, name), 1)
        require_positive("frequency_hz", self.frequency_hz)
        if not 0.0 <= self.format_conversion_overhead < math.inf:
            raise ValueError("format conversion overhead must be finite and non-negative")

    @property
    def num_mac_units(self) -> int:
        return self.array_rows * self.array_cols
