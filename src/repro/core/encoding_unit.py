"""NeRF encoding unit: positional and hash encoding engines (Section 5.2).

The encoding unit sits next to the GEMM/GEMV acceleration unit (Fig. 14) and
removes the encoding bottleneck identified in Fig. 3:

* the positional encoding engine (PEE) evaluates the approximated
  trigonometric functions of Eq. (5)-(6) on 64 parallel lanes, which is 8.2x
  smaller and 12.8x lower power than a DesignWare-based exact implementation;
* the hash encoding engine (HEE) extends NeuRex's unit with 64 coalescing hash
  units (low-resolution levels), 64 subgrid hash units (high-resolution
  levels) and 64 trilinear interpolation units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hw.components import DEFAULT_LIBRARY, ComponentLibrary, ComponentSpec
from repro.hw.sram import SRAMMacro
from repro.nerf.hashgrid import HashGrid
from repro.nerf.positional import approx_positional_encoding
from repro.nerf.workload import EncodingOp
from repro.validate import require_count, require_positive


@dataclass
class EncodingTiming:
    """Cycles / time estimate for one encoding operation."""

    cycles: float
    frequency_hz: float

    @property
    def time_s(self) -> float:
        return self.cycles / self.frequency_hz


class PositionalEncodingEngine:
    """64-lane approximate sinusoidal positional encoding engine."""

    def __init__(
        self,
        num_lanes: int = 64,
        frequency_hz: float = 800e6,
        library: ComponentLibrary = DEFAULT_LIBRARY,
    ) -> None:
        require_count("PEE num_lanes", num_lanes, 1)
        self.num_lanes = num_lanes
        self.frequency_hz = require_positive("PEE frequency_hz", frequency_hz)
        self.library = library

    def encode(self, values: np.ndarray, num_frequencies: int) -> np.ndarray:
        """Functionally encode ``values`` with the hardware approximation."""
        return approx_positional_encoding(values, num_frequencies)

    def timing(self, op: EncodingOp) -> EncodingTiming:
        """Throughput model: each lane produces one encoded scalar per cycle."""
        if op.kind != "positional":
            raise ValueError(f"PEE cannot execute a '{op.kind}' encoding op")
        encodings = op.num_points * op.output_dim * op.count
        cycles = np.ceil(encodings / self.num_lanes)
        return EncodingTiming(cycles=float(cycles), frequency_hz=self.frequency_hz)

    def cost(self) -> ComponentSpec:
        return self.library.compose("pee", {"pee_lane": self.num_lanes})

    def designware_cost(self) -> ComponentSpec:
        """Cost of the exact DesignWare-IP implementation (the 8.2x / 12.8x baseline)."""
        return self.library.compose(
            "pee-designware", {"pee_lane_designware": self.num_lanes}
        )


class HashEncodingEngine:
    """Hash encoding engine with coalescing, subgrid and interpolation units."""

    def __init__(
        self,
        num_units: int = 64,
        frequency_hz: float = 800e6,
        coalescing_factor: float = 4.0,
        library: ComponentLibrary = DEFAULT_LIBRARY,
    ) -> None:
        require_count("HEE num_units", num_units, 1)
        if not (math.isfinite(coalescing_factor) and coalescing_factor >= 1.0):
            raise ValueError(
                f"HEE coalescing_factor must be finite and >= 1, got {coalescing_factor!r}"
            )
        self.num_units = num_units
        self.frequency_hz = require_positive("HEE frequency_hz", frequency_hz)
        self.coalescing_factor = coalescing_factor
        self.library = library

    def encode(self, grid: HashGrid, points: np.ndarray) -> np.ndarray:
        """Functionally encode points through a hash grid."""
        return grid.encode(points)

    def measured_coalescing(self, grid: HashGrid) -> float:
        """Average coalescing factor over the grid's coarse (dense) levels."""
        coarse = [s for s in grid.last_level_stats if not s.uses_hash]
        if not coarse:
            return 1.0
        return float(np.mean([s.coalescing_factor for s in coarse]))

    def timing(self, op: EncodingOp) -> EncodingTiming:
        """Throughput model for hash-table lookups + trilinear interpolation.

        Each unit retires one (possibly coalesced) lookup per cycle; the
        coalescing units merge lookups that share a table line at the coarse
        levels, which divides the effective lookup count.
        """
        if op.kind != "hash":
            raise ValueError(f"HEE cannot execute a '{op.kind}' encoding op")
        lookups = op.num_points * op.table_lookups_per_point * op.count
        effective_lookups = lookups / self.coalescing_factor
        interp_cycles = np.ceil(op.num_points * op.count / self.num_units)
        lookup_cycles = np.ceil(effective_lookups / self.num_units)
        return EncodingTiming(
            cycles=float(lookup_cycles + interp_cycles),
            frequency_hz=self.frequency_hz,
        )

    def cost(self) -> ComponentSpec:
        return self.library.compose(
            "hee",
            {
                "hee_coalesce_unit": self.num_units,
                "hee_subgrid_unit": self.num_units,
                "hee_interp_unit": self.num_units,
            },
        )


class NeRFEncodingUnit:
    """The full encoding unit: PEE + HEE + encoding buffer."""

    def __init__(
        self,
        frequency_hz: float = 800e6,
        buffer_bytes: int = 512 << 10,
        library: ComponentLibrary = DEFAULT_LIBRARY,
    ) -> None:
        self.pee = PositionalEncodingEngine(frequency_hz=frequency_hz, library=library)
        self.hee = HashEncodingEngine(frequency_hz=frequency_hz, library=library)
        self.buffer = SRAMMacro("encoding-buffer", capacity_bytes=buffer_bytes)
        self.frequency_hz = frequency_hz

    def timing(self, op: EncodingOp) -> EncodingTiming:
        """Dispatch an encoding op to the matching engine."""
        if op.kind == "positional":
            return self.pee.timing(op)
        return self.hee.timing(op)

    def area_mm2(self) -> float:
        return (
            self.pee.cost().area_um2 + self.hee.cost().area_um2 + self.buffer.area_um2
        ) / 1e6

    def power_w(self, utilisation: float = 0.6) -> float:
        dynamic_mw = (self.pee.cost().power_mw + self.hee.cost().power_mw) * utilisation
        return dynamic_mw / 1e3 + self.buffer.power_w(utilisation, self.frequency_hz)
