"""Fig. 15: area and power breakdowns of the Table 3 compute arrays."""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.arrays import (
    BitFusionArray,
    BitScalableSigmaArray,
    SigmaArray,
)
from repro.core.mac_array import MACArray
from repro.experiments.api import experiment
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class BreakdownRow:
    """Block-level area and power breakdown for one compute array."""

    name: str
    area_mm2: dict[str, float]
    power_w: dict[str, float]
    total_area_mm2: float
    total_power_w: float


def _render(rows: list[BreakdownRow]) -> str:
    """One line per array: totals plus the block-level area breakdown."""
    lines = []
    for row in rows:
        blocks = ", ".join(
            f"{name}={value:.1f}mm2" for name, value in row.area_mm2.items()
        )
        lines.append(
            f"{row.name:<22} total {row.total_area_mm2:5.1f} mm2 / "
            f"{row.total_power_w:4.1f} W  ({blocks})"
        )
    return "\n".join(lines)


@experiment(
    "fig15",
    title="Compute-array area/power breakdowns",
    tags=("hw-cost", "baseline"),
    params={"precision": "operating mode"},
    render=_render,
)
def run(precision: Precision = Precision.INT16) -> list[BreakdownRow]:
    """Collect area/power breakdowns for the four arrays at ``precision``."""
    rows = []
    for cls in (SigmaArray, BitFusionArray, BitScalableSigmaArray):
        baseline = cls()
        area = baseline.area()
        total_power = baseline.power_w(precision) if precision in baseline.published_power_w else baseline.power_w(Precision.INT16)
        # Scale the power breakdown proportionally to the area breakdown: the
        # baseline papers do not publish per-block power.
        power = {
            block: total_power * value / area.total_mm2
            for block, value in area.breakdown.items()
        }
        rows.append(
            BreakdownRow(
                name=baseline.name,
                area_mm2=dict(area.breakdown),
                power_w=power,
                total_area_mm2=area.total_mm2,
                total_power_w=total_power,
            )
        )
    array = MACArray()
    area = array.area()
    power = array.power(precision)
    rows.append(
        BreakdownRow(
            name="FlexNeRFer MAC Array",
            area_mm2=dict(area.breakdown),
            power_w=dict(power.breakdown),
            total_area_mm2=area.total_mm2,
            total_power_w=power.total_w,
        )
    )
    return rows
