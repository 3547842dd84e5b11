"""Fig. 7: memory footprint of each compression format vs. sparsity ratio.

For the native tile of every precision mode (64x64 at INT16, 128x128 at INT8,
256x256 at INT4), the footprint of COO, CSC/CSR and Bitmap is normalised to
the uncompressed layout across sparsity ratios from 1 % to 99.9 %.  Lower
precision shifts the compressed formats' break-even points to the right.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.sparse.footprint import FootprintModel
from repro.sparse.formats import Precision, SparsityFormat

#: Sparsity ratios (percent) swept in the figure.
SPARSITY_PERCENTAGES = (
    1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90,
    95, 99, 99.9,
)

#: Formats plotted in the figure (CSR stands for the shared CSC/CSR scheme).
PLOTTED_FORMATS = (
    SparsityFormat.NONE,
    SparsityFormat.COO,
    SparsityFormat.CSR,
    SparsityFormat.BITMAP,
)


@dataclass(frozen=True)
class FootprintSeries:
    """Normalised footprint of one format across the sparsity sweep."""

    precision: Precision
    fmt: SparsityFormat
    sparsity_percent: tuple[float, ...]
    normalized_footprint: tuple[float, ...]


def _points_cell(entry: "FootprintSeries") -> str:
    return ", ".join(
        f"{pct:g}%:{val:.2f}"
        for pct, val in list(
            zip(entry.sparsity_percent, entry.normalized_footprint)
        )[::4]
    )


@experiment(
    "fig07",
    title="Memory footprint vs sparsity per format",
    tags=("sparsity", "formats"),
    params={"precisions": "precision modes to sweep"},
    columns=(
        Column("precision", "<6", value=lambda e: e.precision.name),
        Column("fmt", "<7", value=lambda e: e.fmt.value),
        Column("points", "", value=_points_cell),
    ),
    header=False,
)
def run(
    precisions: tuple[Precision, ...] = (Precision.INT16, Precision.INT8, Precision.INT4),
) -> list[FootprintSeries]:
    """Sweep the footprint model for every precision / format combination."""
    series = []
    for precision in precisions:
        model = FootprintModel.for_precision(precision)
        for fmt in PLOTTED_FORMATS:
            values = tuple(
                model.ratio_over_none(fmt, pct / 100.0)
                for pct in SPARSITY_PERCENTAGES
            )
            series.append(
                FootprintSeries(
                    precision=precision,
                    fmt=fmt,
                    sparsity_percent=tuple(SPARSITY_PERCENTAGES),
                    normalized_footprint=values,
                )
            )
    return series


def crossover_sparsity(series: list[FootprintSeries], precision: Precision) -> dict[SparsityFormat, float]:
    """Lowest swept sparsity at which each format beats the dense layout."""
    out: dict[SparsityFormat, float] = {}
    for entry in series:
        if entry.precision is not precision or entry.fmt is SparsityFormat.NONE:
            continue
        for pct, value in zip(entry.sparsity_percent, entry.normalized_footprint):
            if value < 1.0:
                out[entry.fmt] = pct
                break
    return out
