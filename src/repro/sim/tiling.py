"""Tiling of GEMM operations onto a compute array."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.nerf.workload import GEMMOp
from repro.sim.array_config import ArrayConfig


@dataclass(frozen=True)
class TileGrid:
    """How a GEMM of shape (M, N, K) tiles onto an array grid."""

    tile_m: int
    tile_n: int
    tile_k: int
    tiles_m: int
    tiles_n: int
    tiles_k: int


@functools.lru_cache(maxsize=16384)
def tile_counts(op: GEMMOp, config: ArrayConfig) -> TileGrid:
    """Tile ``op`` onto the array at the op's precision.

    The array maps the reduction dimension K across the rows of the
    multiplier grid and the output dimension N across its columns; the M
    dimension is streamed tile by tile.

    Both arguments are frozen dataclasses, and the enumeration is a pure
    function of them, so results are memoised process-wide.  Only the cycle
    model and the compression ablation's traffic probe query it, once per
    op each, but sweeps re-tile identical MLP layers thousands of times.
    ``repro bench`` quantifies the speedup (``hot_path`` section);
    ``tile_counts.__wrapped__`` is the uncached original.
    """
    grid_rows, grid_cols = config.effective_grid(op.precision)
    tile_m = grid_rows
    tile_n = grid_cols
    tile_k = grid_rows
    tiles_m = math.ceil(op.m / tile_m)
    tiles_n = math.ceil(op.n / tile_n)
    tiles_k = math.ceil(op.k / tile_k)
    return TileGrid(
        tile_m=tile_m,
        tile_n=tile_n,
        tile_k=tile_k,
        tiles_m=tiles_m,
        tiles_n=tiles_n,
        tiles_k=tiles_k,
    )
