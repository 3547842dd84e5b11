"""Fig. 3: GPU runtime breakdown (GEMM/GEMV vs encoding vs other) per model.

The takeaway reproduced here: GEMM/GEMV dominates every model, and the
encoding share is substantial for the models with expensive neural feature
encoding (KiloNeRF, NSVF, Mip-NeRF, Instant-NGP).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.nerf.models import MODEL_REGISTRY, FrameConfig
from repro.nerf.workload import OpCategory
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine


@dataclass(frozen=True)
class BreakdownRow:
    """Runtime fractions of one model on the GPU."""

    model: str
    gemm_fraction: float
    encoding_fraction: float
    other_fraction: float

    @property
    def total(self) -> float:
        return self.gemm_fraction + self.encoding_fraction + self.other_fraction


@experiment(
    "fig03",
    title="GPU runtime breakdown per model",
    tags=("frame-sim", "gpu"),
    params={"device": "registry name of the GPU"},
    columns=(
        Column("model", "<14"),
        Column("GEMM %", ">8.1f", value=lambda r: r.gemm_fraction * 100),
        Column("Encoding %", ">12.1f", value=lambda r: r.encoding_fraction * 100),
        Column("Other %", ">9.1f", value=lambda r: r.other_fraction * 100),
    ),
)
def run(
    config: FrameConfig | None = None,
    device: str = "rtx-2080-ti",
    engine: SweepEngine | None = None,
) -> list[BreakdownRow]:
    """Compute the per-category runtime fractions for every model."""
    engine = engine or get_default_engine()
    spec = SweepSpec(
        devices=(device,),
        models=tuple(MODEL_REGISTRY),
        base_config=config or FrameConfig(),
    )
    rows = []
    for result in engine.run(spec):
        breakdown = result.report.trace.runtime_breakdown()
        rows.append(
            BreakdownRow(
                model=result.model,
                gemm_fraction=breakdown[OpCategory.GEMM],
                encoding_fraction=breakdown[OpCategory.ENCODING],
                other_fraction=breakdown[OpCategory.OTHER],
            )
        )
    return rows
