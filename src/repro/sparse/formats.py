"""Precision modes and sparsity-format identifiers.

FlexNeRFer supports three integer precisions (INT4, INT8, INT16) on a
bit-scalable MAC array and four storage formats for sparse operands
(uncompressed, COO, CSR/CSC and Bitmap).  The tile dimensions that a single
data fetch covers grow as the precision shrinks (paper Fig. 6(b)): a 64x64
tile in 16-bit mode becomes 128x128 in 8-bit mode and 256x256 in 4-bit mode,
because halving the precision quadruples the number of usable multipliers.
"""

from __future__ import annotations

import enum
import math

from repro.validate import require_count


class Precision(enum.IntEnum):
    """Operand bit-width supported by the bit-scalable MAC array."""

    INT4 = 4
    INT8 = 8
    INT16 = 16

    @property
    def bits(self) -> int:
        """Number of bits used to store one element at this precision."""
        return int(self.value)

    @property
    def max_value(self) -> int:
        """Largest representable signed value."""
        return 2 ** (self.bits - 1) - 1

    @property
    def min_value(self) -> int:
        """Smallest representable signed value."""
        return -(2 ** (self.bits - 1))


class SparsityFormat(enum.Enum):
    """Storage format for a (possibly sparse) operand tile."""

    NONE = "none"
    COO = "coo"
    CSR = "csr"
    CSC = "csc"
    BITMAP = "bitmap"



#: Base tile edge (elements) in 16-bit mode; the paper uses a 64x64 MAC array.
BASE_TILE_EDGE_INT16 = 64


def tile_shape_for_precision(
    precision: Precision, base_edge: int = BASE_TILE_EDGE_INT16
) -> tuple[int, int]:
    """Return the square tile shape mapped per fetch at ``precision``.

    Halving the precision doubles the tile edge (paper Fig. 6(b)): the number
    of effective multiplier lanes quadruples, arranged as a 2x larger square.
    """
    scale = Precision.INT16.bits // precision.bits
    edge = base_edge * scale
    return (edge, edge)


def index_bits(dim: int) -> int:
    """Number of bits needed to index a dimension of size ``dim``."""
    dim = require_count("dimension", dim, 1)
    if dim == 1:
        return 1
    return int(math.ceil(math.log2(dim)))
