"""Fig. 8: the footprint-minimising sparsity format per sparsity ratio and mode.

Dense storage wins at low sparsity, Bitmap in the mid range, CSC/CSR at high
sparsity and COO only at extreme sparsity; the transition points move to
higher sparsity as the precision decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.experiments.fig07_footprint import SPARSITY_PERCENTAGES
from repro.sparse.formats import Precision, SparsityFormat
from repro.sparse.selector import FormatSelector


@dataclass(frozen=True)
class OptimalFormatRow:
    """Optimal format at every swept sparsity ratio for one precision mode."""

    precision: Precision
    sparsity_percent: tuple[float, ...]
    optimal_format: tuple[SparsityFormat, ...]

    def transition_points(self) -> list[tuple[float, SparsityFormat]]:
        """Sparsity ratios at which the optimal format changes."""
        points = []
        previous = None
        for pct, fmt in zip(self.sparsity_percent, self.optimal_format):
            if fmt is not previous:
                points.append((pct, fmt))
                previous = fmt
        return points


def _transitions_cell(row: "OptimalFormatRow") -> str:
    return " -> ".join(
        f"{fmt.value}@{pct:g}%" for pct, fmt in row.transition_points()
    )


@experiment(
    "fig08",
    title="Optimal sparsity format per ratio / mode",
    tags=("sparsity", "formats"),
    params={"precisions": "precision modes to sweep"},
    columns=(
        Column("precision", "<6", value=lambda r: r.precision.name),
        Column("transitions", "", value=_transitions_cell),
    ),
    header=False,
)
def run(
    precisions: tuple[Precision, ...] = (Precision.INT4, Precision.INT8, Precision.INT16),
) -> list[OptimalFormatRow]:
    """Sweep the format selector across sparsity ratios for every mode."""
    selector = FormatSelector()
    rows = []
    for precision in precisions:
        decisions = selector.sweep(
            [pct / 100.0 for pct in SPARSITY_PERCENTAGES], precision
        )
        rows.append(
            OptimalFormatRow(
                precision=precision,
                sparsity_percent=tuple(SPARSITY_PERCENTAGES),
                optimal_format=tuple(decision.fmt for decision in decisions),
            )
        )
    return rows
