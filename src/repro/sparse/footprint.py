"""Analytical memory-footprint model for the sparsity formats.

The model reproduces the analysis behind paper Fig. 7: for a square tile whose
edge depends on the precision mode (64 in 16-bit, 128 in 8-bit, 256 in 4-bit
mode) it computes the storage cost of each format as a function of the
sparsity ratio.  Lower precisions make the per-element payload cheaper while
the index metadata cost stays constant, which shifts the break-even sparsity
of the compressed formats to the right -- exactly the trend reported in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sparse.formats import (
    Precision,
    SparsityFormat,
    index_bits,
    tile_shape_for_precision,
)


@dataclass(frozen=True)
class FootprintModel:
    """Footprint model for a tile of a given shape and precision."""

    rows: int
    cols: int
    precision: Precision

    @classmethod
    def for_precision(cls, precision: Precision) -> "FootprintModel":
        """Model for the native MAC-array tile of ``precision`` (Fig. 6(b))."""
        rows, cols = tile_shape_for_precision(precision)
        return cls(rows=rows, cols=cols, precision=precision)

    @property
    def num_elements(self) -> int:
        """Total number of elements in the tile."""
        return self.rows * self.cols

    def nnz_for_sparsity(self, sparsity_ratio: float) -> int:
        """Number of non-zeros for a sparsity ratio given in [0, 1]."""
        if not 0.0 <= sparsity_ratio <= 1.0:
            raise ValueError(f"sparsity ratio must be in [0, 1], got {sparsity_ratio}")
        return int(round(self.num_elements * (1.0 - sparsity_ratio)))

    def bits(self, fmt: SparsityFormat, sparsity_ratio: float) -> float:
        """Storage cost (bits) of the tile in ``fmt`` at ``sparsity_ratio``."""
        nnz = self.nnz_for_sparsity(sparsity_ratio)
        data_bits = self.precision.bits
        if fmt is SparsityFormat.NONE:
            return float(self.num_elements * data_bits)
        if fmt is SparsityFormat.COO:
            per_nz = data_bits + index_bits(self.rows) + index_bits(self.cols)
            return float(nnz * per_nz)
        if fmt is SparsityFormat.CSR:
            ptr_bits = index_bits(self.num_elements + 1)
            return float(
                nnz * (data_bits + index_bits(self.cols)) + (self.rows + 1) * ptr_bits
            )
        if fmt is SparsityFormat.CSC:
            ptr_bits = index_bits(self.num_elements + 1)
            return float(
                nnz * (data_bits + index_bits(self.rows)) + (self.cols + 1) * ptr_bits
            )
        if fmt is SparsityFormat.BITMAP:
            return float(self.num_elements + nnz * data_bits)
        raise ValueError(f"unknown format {fmt}")

    def ratio_over_none(self, fmt: SparsityFormat, sparsity_ratio: float) -> float:
        """Footprint of ``fmt`` normalised to the uncompressed layout."""
        return self.bits(fmt, sparsity_ratio) / self.bits(
            SparsityFormat.NONE, sparsity_ratio
        )

    def sweep(
        self, fmt: SparsityFormat, sparsity_ratios: list[float]
    ) -> list[float]:
        """Normalised footprint of ``fmt`` across a list of sparsity ratios."""
        return [self.ratio_over_none(fmt, s) for s in sparsity_ratios]
