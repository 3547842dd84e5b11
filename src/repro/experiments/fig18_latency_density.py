"""Fig. 18: normalised latency breakdown and compute density vs NeuRex.

FlexNeRFer's flexible NoC and sparsity support cut latency to a fraction of
NeuRex at INT16, and further at INT8 / INT4; despite its larger area this
yields a higher compute density (performance per mm^2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.nerf.models import FrameConfig
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine
from repro.sparse.formats import Precision

#: FlexNeRFer precision modes shown in the figure.
PRECISIONS = (Precision.INT16, Precision.INT8, Precision.INT4)


@dataclass(frozen=True)
class LatencyDensityRow:
    """One device/precision point of Fig. 18."""

    device: str
    precision: Precision | None
    latency_s: float
    normalized_latency: float
    compute_time_s: float
    dram_time_s: float
    format_conversion_time_s: float
    area_mm2: float
    compute_density: float       # normalised perf / area relative to NeuRex

    @property
    def format_conversion_fraction(self) -> float:
        return self.format_conversion_time_s / self.latency_s if self.latency_s else 0.0


def _row(result, normalized: float, area_mm2: float, density: float) -> LatencyDensityRow:
    components = result.report.trace.time_by_component()
    return LatencyDensityRow(
        device=result.device,
        precision=result.effective_precision,
        latency_s=result.latency_s,
        normalized_latency=normalized,
        compute_time_s=components["compute"],
        dram_time_s=components["dram"],
        format_conversion_time_s=components["format_conversion"],
        area_mm2=area_mm2,
        compute_density=density,
    )


@experiment(
    "fig18",
    title="Normalised latency and compute density",
    tags=("frame-sim",),
    params={"model_name": "NeRF model to render"},
    columns=(
        Column("device", "<12"),
        Column("mode", "<6", value=lambda r: r.precision.name if r.precision else "-"),
        Column("norm latency", ">12.3f", key="normalized_latency"),
        Column("density", ">9.2f", key="compute_density"),
        Column(
            "fmt conv %",
            ">11.1f",
            value=lambda r: r.format_conversion_fraction * 100,
        ),
    ),
)
def run(
    model_name: str = "instant-ngp",
    config: FrameConfig | None = None,
    engine: SweepEngine | None = None,
) -> list[LatencyDensityRow]:
    """Render one model on NeuRex and FlexNeRFer at INT16/8/4."""
    engine = engine or get_default_engine()
    config = config or FrameConfig()
    results = engine.run(
        SweepSpec(
            devices=("neurex", "flexnerfer"),
            models=(model_name,),
            precisions=PRECISIONS,
            base_config=config,
        )
    )
    # NeuRex collapses every precision onto one cached INT16 simulation; one
    # row represents it in the figure.
    neurex = next(r for r in results if r.device == "NeuRex")
    neurex_area = engine.device("neurex").area_mm2()
    flex_area = engine.device("flexnerfer").area_mm2()

    rows = [_row(neurex, normalized=1.0, area_mm2=neurex_area, density=1.0)]
    for result in results:
        if result.device != "FlexNeRFer":
            continue
        normalized = result.latency_s / neurex.latency_s
        density = (1.0 / normalized) * (neurex_area / flex_area)
        rows.append(_row(result, normalized, flex_area, density))
    return rows
