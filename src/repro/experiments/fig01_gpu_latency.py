"""Fig. 1: rendering latency of seven NeRF models on the RTX 2080 Ti.

The paper shows that every model exceeds the 16.8 ms VR frame threshold and
the 8.3 ms game frame threshold on a desktop GPU, motivating a dedicated
accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.nerf.models import MODEL_REGISTRY, FrameConfig
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine

#: Frame-time thresholds from the paper (Section 1).
VR_FRAME_THRESHOLD_MS = 16.8
GAME_FRAME_THRESHOLD_MS = 8.3


@dataclass(frozen=True)
class LatencyRow:
    """GPU rendering latency of one NeRF model."""

    model: str
    latency_ms: float
    exceeds_vr_threshold: bool
    exceeds_game_threshold: bool


@experiment(
    "fig01",
    title="GPU rendering latency of seven NeRF models",
    tags=("frame-sim", "gpu"),
    params={"device": "registry name of the GPU"},
    columns=(
        Column("model", "<14"),
        Column("latency [ms]", ">14.1f", key="latency_ms"),
        Column(">16.8ms", ">8", value=lambda r: str(r.exceeds_vr_threshold)),
        Column(">8.3ms", ">8", value=lambda r: str(r.exceeds_game_threshold)),
    ),
)
def run(
    device: str = "rtx-2080-ti",
    config: FrameConfig | None = None,
    engine: SweepEngine | None = None,
) -> list[LatencyRow]:
    """Render one frame of every model on the GPU device and report latency."""
    engine = engine or get_default_engine()
    spec = SweepSpec(
        devices=(device,),
        models=tuple(MODEL_REGISTRY),
        base_config=config or FrameConfig(),
    )
    rows = []
    for result in engine.run(spec):
        latency_ms = result.report.frame_time_ms
        rows.append(
            LatencyRow(
                model=result.model,
                latency_ms=latency_ms,
                exceeds_vr_threshold=latency_ms > VR_FRAME_THRESHOLD_MS,
                exceeds_game_threshold=latency_ms > GAME_FRAME_THRESHOLD_MS,
            )
        )
    return rows
