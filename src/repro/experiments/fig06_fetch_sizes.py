"""Fig. 6(b): multiplier counts and data-fetch sizes per precision mode.

A 64x64 array of bit-scalable MAC units exposes a 64x64 / 128x128 / 256x256
effective multiplier grid in 16- / 8- / 4-bit mode, and the per-tile operand
fetch size doubles every time the precision is halved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mac_array import MACArray
from repro.experiments.api import Column, experiment
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class FetchRow:
    """One precision mode's row of Fig. 6(b)."""

    precision: Precision
    grid_rows: int
    grid_cols: int
    num_multipliers: int
    fetch_bytes: int


@experiment(
    "fig06",
    title="Multiplier grid and fetch size per precision",
    tags=("hw-cost", "precision"),
    params={"rows": "physical MAC-array rows", "cols": "physical MAC-array columns"},
    columns=(
        Column("mode", "<8", value=lambda r: r.precision.name),
        Column("grid", ">12", value=lambda r: f"{r.grid_rows}x{r.grid_cols}"),
        Column("# multipliers", ">14,", key="num_multipliers"),
        Column("fetch [B]", ">10,", key="fetch_bytes"),
    ),
)
def run(rows: int = 64, cols: int = 64) -> list[FetchRow]:
    """Compute the multiplier grid and fetch size for every precision mode."""
    array = MACArray(rows=rows, cols=cols)
    config = array.array_config()
    out = []
    for precision in (Precision.INT16, Precision.INT8, Precision.INT4):
        grid = config.effective_grid(precision)
        out.append(
            FetchRow(
                precision=precision,
                grid_rows=grid[0],
                grid_cols=grid[1],
                num_multipliers=array.num_multipliers(precision),
                fetch_bytes=config.data_fetch_bytes(precision),
            )
        )
    return out
