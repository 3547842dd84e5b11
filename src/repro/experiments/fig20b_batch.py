"""Fig. 20(b): speedup over the GPU vs batch size and scene complexity.

A simple scene (Mic) renders faster than a complex one (Palace) because fewer
samples survive empty-space skipping, and the gains plateau once the batch
size exceeds ~8192 as the off-chip bandwidth and compute resources saturate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.nerf.models import FrameConfig
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine, index_rows
from repro.sparse.formats import Precision

#: Batch sizes swept in the figure.
BATCH_SIZES = (2048, 4096, 8192, 16384)

#: Batch size beyond which the accelerator's buffers / DRAM bandwidth saturate.
SATURATION_BATCH = 8192

#: Registry name of the reference GPU.
BASELINE_DEVICE = "rtx-2080-ti"


@dataclass(frozen=True)
class BatchPoint:
    """Speedup over the GPU for one scene / batch-size combination."""

    scene: str
    batch_size: int
    flexnerfer_latency_s: float
    gpu_latency_s: float
    speedup: float


def _batch_efficiency(batch_size: int) -> float:
    """Fraction of peak the accelerator reaches at a given batch size.

    Small batches underfill the MAC array and amortise control overhead
    poorly; beyond the saturation batch the off-chip bandwidth caps further
    gains (paper Section 6.3.2).
    """
    ramp = min(batch_size, SATURATION_BATCH) / SATURATION_BATCH
    return 0.55 + 0.45 * ramp


@experiment(
    "fig20b",
    title="Speedup vs batch size and scene complexity",
    tags=("frame-sim", "nerf"),
    params={
        "scenes": "scenes to sweep",
        "batch_sizes": "ray batch sizes to sweep",
        "model_name": "NeRF model to render",
        "precision": "FlexNeRFer mode",
    },
    columns=(
        Column("scene", "<8"),
        Column("batch", ">6", key="batch_size"),
        Column("speedup", ">9.1f", key="speedup"),
        Column("latency [ms]", ">13.1f", value=lambda p: p.flexnerfer_latency_s * 1e3),
    ),
)
def run(
    scenes: tuple[str, ...] = ("mic", "palace"),
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    model_name: str = "instant-ngp",
    precision: Precision = Precision.INT16,
    engine: SweepEngine | None = None,
) -> list[BatchPoint]:
    """Sweep batch sizes for a simple and a complex scene."""
    engine = engine or get_default_engine()
    rows = engine.run(
        SweepSpec(
            devices=(BASELINE_DEVICE, "flexnerfer"),
            models=(model_name,),
            precisions=(precision,),
            scenes=scenes,
            batch_sizes=batch_sizes,
            base_config=FrameConfig(),
        )
    )
    by_point = index_rows(rows, "device", "scene", "batch_size")
    gpu_name = engine.device(BASELINE_DEVICE).name
    points = []
    for scene in scenes:
        for batch in batch_sizes:
            gpu_row = by_point[(gpu_name, scene, batch)]
            flex_row = by_point[("FlexNeRFer", scene, batch)]
            latency = flex_row.latency_s / _batch_efficiency(batch)
            points.append(
                BatchPoint(
                    scene=scene,
                    batch_size=batch,
                    flexnerfer_latency_s=latency,
                    gpu_latency_s=gpu_row.latency_s,
                    speedup=gpu_row.latency_s / latency,
                )
            )
    return points
