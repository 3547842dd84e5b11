"""Fig. 17: area / power breakdowns of FlexNeRFer and NeuRex.

FlexNeRFer's bit-scalable array and flexible NoC cost extra area/power over
NeuRex, and the format encoder/decoder adds a few percent more -- overheads
that buy the latency reductions of Fig. 18.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import get_device
from repro.experiments.api import experiment
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class AcceleratorBreakdown:
    """Block-level breakdown of one accelerator."""

    device: str
    area_mm2: dict[str, float]
    power_w: dict[str, float]
    total_area_mm2: float
    total_power_w: float

    def area_fraction(self, block: str) -> float:
        return self.area_mm2.get(block, 0.0) / self.total_area_mm2


@dataclass(frozen=True)
class Fig17Result:
    """Both accelerators' breakdowns plus the paper's headline overheads."""

    flexnerfer: AcceleratorBreakdown
    neurex: AcceleratorBreakdown

    @property
    def area_overhead(self) -> float:
        """FlexNeRFer's area overhead relative to NeuRex."""
        return self.flexnerfer.total_area_mm2 / self.neurex.total_area_mm2 - 1.0

    @property
    def power_overhead(self) -> float:
        return self.flexnerfer.total_power_w / self.neurex.total_power_w - 1.0

    @property
    def format_codec_area_fraction(self) -> float:
        """Area share of the format encoder/decoder (paper: ~3.2 %)."""
        return self.flexnerfer.area_fraction("gemm_unit/format_codec")


def _render(result: Fig17Result) -> str:
    """Nested block-level listing per accelerator plus the headline overheads."""
    lines = []
    for device in (result.neurex, result.flexnerfer):
        lines.append(
            f"{device.device}: {device.total_area_mm2:.1f} mm2, {device.total_power_w:.1f} W"
        )
        for block, value in device.area_mm2.items():
            lines.append(
                f"  {block:<32} {value:6.2f} mm2  {device.power_w.get(block, 0.0):5.2f} W"
            )
    lines.append(
        f"area overhead vs NeuRex: {result.area_overhead * 100:.1f}%  "
        f"power overhead: {result.power_overhead * 100:.1f}%"
    )
    return "\n".join(lines)


@experiment(
    "fig17",
    title="FlexNeRFer / NeuRex cost breakdowns",
    tags=("hw-cost",),
    params={"precision": "operating mode"},
    render=_render,
    items=lambda result: (result.neurex, result.flexnerfer),
)
def run(precision: Precision = Precision.INT16) -> Fig17Result:
    """Compute both breakdowns at ``precision`` (the paper reports INT16)."""
    flex = get_device("flexnerfer")
    neurex = get_device("neurex")
    flex_area = flex.area()
    flex_power = flex.power(precision)
    neurex_area = neurex.area()
    neurex_power = neurex.power()
    return Fig17Result(
        flexnerfer=AcceleratorBreakdown(
            device="FlexNeRFer",
            area_mm2=dict(flex_area.breakdown),
            power_w=dict(flex_power.breakdown),
            total_area_mm2=flex_area.total_mm2,
            total_power_w=flex_power.total_w,
        ),
        neurex=AcceleratorBreakdown(
            device="NeuRex",
            area_mm2=dict(neurex_area.breakdown),
            power_w=dict(neurex_power.breakdown),
            total_area_mm2=neurex_area.total_mm2,
            total_power_w=neurex_power.total_w,
        ),
    )
