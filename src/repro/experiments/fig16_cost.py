"""Fig. 16: accelerator-level area / power vs. GPUs and NeuRex.

Both NeuRex and FlexNeRFer fit the on-device constraints (< 100 mm^2 and
< 10 W); the GPUs do not.  Every device is pulled from the unified
:data:`repro.core.device.DEVICE_REGISTRY` and reports its cost through the
:class:`repro.core.device.Device` protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.device import get_device
from repro.experiments.api import Column, experiment

#: On-device integration constraints quoted in the paper.
AREA_CONSTRAINT_MM2 = 100.0
POWER_CONSTRAINT_W = 10.0

#: Registry names of the devices compared in the figure.
DEFAULT_DEVICES = ("rtx-2080-ti", "xavier-nx", "neurex", "flexnerfer")


@dataclass(frozen=True)
class DeviceCostRow:
    """Area / power of one device."""

    device: str
    area_mm2: float
    power_w: dict[str, float]
    meets_area_constraint: bool
    meets_power_constraint: bool


@experiment(
    "fig16",
    title="Accelerator-level area/power vs GPUs and NeuRex",
    tags=("hw-cost",),
    params={"devices": "registry names of the devices to compare"},
    columns=(
        Column("device", "<14"),
        Column("area [mm2]", ">10.1f", key="area_mm2"),
        Column(
            "power [W]",
            ">28",
            value=lambda r: ", ".join(f"{k}:{v:.1f}" for k, v in r.power_w.items()),
        ),
        Column(
            "fits?",
            ">6",
            value=lambda r: str(r.meets_area_constraint and r.meets_power_constraint),
        ),
    ),
)
def run(devices: tuple[str, ...] = DEFAULT_DEVICES) -> list[DeviceCostRow]:
    """Collect area / power for every requested registry device."""
    rows = []
    for name in devices:
        device = get_device(name)
        area = device.area_mm2()
        power = device.power_profile()
        rows.append(
            DeviceCostRow(
                device=device.name,
                area_mm2=area,
                power_w=power,
                meets_area_constraint=area < AREA_CONSTRAINT_MM2,
                meets_power_constraint=max(power.values()) < POWER_CONSTRAINT_W,
            )
        )
    return rows
