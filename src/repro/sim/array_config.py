"""Configuration of a GEMM/GEMV compute array.

A single configuration class describes FlexNeRFer's MAC array as well as the
baseline arrays (SIGMA, Bit Fusion, bit-scalable SIGMA and NeuRex's dense
INT16 array), so the cycle model can be shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sparse.formats import Precision
from repro.validate import require_count, require_positive


@dataclass(frozen=True)
class ArrayConfig:
    """Static description of a compute array.

    ``supports_sparsity`` marks an array behind a flexible distribution
    network (SIGMA / FlexNeRFer): it packs only non-zero operands onto the
    MACs, so it skips zeros and re-packs irregular shapes.  Without it the
    array is a rigid weight-stationary grid (TPU-like).
    """

    name: str
    rows: int = 64
    cols: int = 64
    frequency_hz: float = 800e6
    base_precision: Precision = Precision.INT16
    bit_scalable: bool = False
    supports_sparsity: bool = False
    #: Fraction of peak cycles lost to pipeline fill/drain and control.
    pipeline_overhead: float = 0.03
    #: Additional latency fraction spent on (de)compression / format handling.
    format_conversion_overhead: float = 0.0

    def __post_init__(self) -> None:
        require_count("array rows", self.rows, 1)
        require_count("array cols", self.cols, 1)
        require_positive("array frequency_hz", self.frequency_hz)
        if not 0.0 <= self.pipeline_overhead < 1.0:
            raise ValueError("pipeline overhead must be in [0, 1)")
        if not 0.0 <= self.format_conversion_overhead < math.inf:
            raise ValueError("format conversion overhead must be finite and non-negative")

    # -- precision handling ---------------------------------------------------

    def supported_precisions(self) -> tuple[Precision, ...]:
        if self.bit_scalable:
            return (Precision.INT4, Precision.INT8, Precision.INT16)
        return (self.base_precision,)

    def supports_precision(self, precision: Precision) -> bool:
        return precision in self.supported_precisions()

    def effective_precision(self, precision: Precision) -> Precision:
        """Precision the array actually computes at for a requested precision.

        Non-bit-scalable arrays run every workload at their base precision.
        """
        if self.supports_precision(precision):
            return precision
        return self.base_precision

    def effective_grid(self, precision: Precision) -> tuple[int, int]:
        """Logical multiplier grid (rows, cols) at ``precision`` (Fig. 6(b))."""
        effective = self.effective_precision(precision)
        edge_scale = max(1, self.base_precision.bits // effective.bits)
        return (self.rows * edge_scale, self.cols * edge_scale)

    def macs_per_cycle(self, precision: Precision) -> int:
        """Peak MAC operations per cycle at ``precision``."""
        grid_rows, grid_cols = self.effective_grid(precision)
        return grid_rows * grid_cols

    def data_fetch_bytes(self, precision: Precision) -> int:
        """Bytes fetched per operand per tile at ``precision`` (Fig. 6(b)).

        Halving the precision quadruples the tile's element count but halves
        the bits per element, so the fetch size doubles per precision step:
        8 KiB at INT16, 16 KiB at INT8 and 32 KiB at INT4 for a 64x64 array.
        """
        grid_rows, grid_cols = self.effective_grid(precision)
        return grid_rows * grid_cols * self.effective_precision(precision).bits // 8
