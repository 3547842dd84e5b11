"""Fig. 19: speedup and energy-efficiency gain over the RTX 2080 Ti.

NeuRex's gains are flat because it supports neither sparsity nor precision
flexibility; FlexNeRFer's gains grow with structured pruning and with lower
precision modes.  The whole figure is one declared sweep: the engine's
capability-aware cache simulates NeuRex once per model no matter how many
precision / pruning points are requested.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments._stats import gain_geomean
from repro.experiments.api import Column, experiment
from repro.nerf.models import MODEL_REGISTRY, FrameConfig
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine
from repro.sparse.formats import Precision

#: Pruning ratios swept in the figure.
PRUNING_RATIOS = (0.0, 0.3, 0.5, 0.7, 0.9)

#: FlexNeRFer precision modes swept in the figure.
PRECISIONS = (Precision.INT16, Precision.INT8, Precision.INT4)

#: Default model subset for quick runs (the full figure averages all seven).
DEFAULT_MODELS = ("nerf", "instant-ngp", "tensorf")

#: Registry name of the reference GPU every gain is measured against.
BASELINE_DEVICE = "rtx-2080-ti"


@dataclass(frozen=True)
class GainPoint:
    """One bar of Fig. 19: a device/precision/pruning combination."""

    device: str
    precision: Precision | None
    pruning_ratio: float
    speedup: float
    energy_efficiency_gain: float


@experiment(
    "fig19",
    title="Speedup / energy gain over the GPU",
    tags=("frame-sim", "sparsity", "precision"),
    params={
        "models": "models to average over ('all' for every registered model)",
        "pruning_ratios": "structured pruning ratios to sweep",
    },
    columns=(
        Column("device", "<12"),
        Column("mode", "<6", value=lambda p: p.precision.name if p.precision else "-"),
        Column("pruning %", ">9.0f", value=lambda p: p.pruning_ratio * 100),
        Column("speedup", ">9.1f", key="speedup"),
        Column("energy gain", ">12.1f", key="energy_efficiency_gain"),
    ),
)
def run(
    models: tuple[str, ...] = DEFAULT_MODELS,
    pruning_ratios: tuple[float, ...] = PRUNING_RATIOS,
    config: FrameConfig | None = None,
    engine: SweepEngine | None = None,
) -> list[GainPoint]:
    """Sweep device x precision x pruning over ``models`` and average the gains."""
    engine = engine or get_default_engine()
    config = config or FrameConfig()
    if models == ("all",):
        models = tuple(MODEL_REGISTRY)

    baseline = engine.run(
        SweepSpec(devices=(BASELINE_DEVICE,), models=models, base_config=config)
    )
    accel_rows = engine.run(
        SweepSpec(
            devices=("neurex", "flexnerfer"),
            models=models,
            precisions=PRECISIONS,
            pruning_ratios=pruning_ratios,
            base_config=config,
        )
    )

    def group(device: str, precision: Precision, pruning: float):
        return [
            r for r in accel_rows
            if r.device == device
            and r.precision is precision
            and r.pruning_ratio == pruning
        ]

    points: list[GainPoint] = []
    for pruning in pruning_ratios:
        rows = group("NeuRex", Precision.INT16, pruning)
        points.append(
            GainPoint(
                device="NeuRex",
                precision=Precision.INT16,
                pruning_ratio=pruning,
                speedup=gain_geomean(baseline, rows, "latency_s"),
                energy_efficiency_gain=gain_geomean(baseline, rows, "energy_j"),
            )
        )
    for precision in PRECISIONS:
        for pruning in pruning_ratios:
            rows = group("FlexNeRFer", precision, pruning)
            points.append(
                GainPoint(
                    device="FlexNeRFer",
                    precision=precision,
                    pruning_ratio=pruning,
                    speedup=gain_geomean(baseline, rows, "latency_s"),
                    energy_efficiency_gain=gain_geomean(baseline, rows, "energy_j"),
                )
            )
    return points
