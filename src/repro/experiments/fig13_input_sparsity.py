"""Fig. 13(a): input-matrix sparsity at different rendering stages (Instant-NGP).

The sparsity of the matrix entering the network varies across rendering
stages and scenes: after ray-marching / empty-space skipping the input rows of
skipped samples are all-zero (high, scene-dependent sparsity), the first
ReLU's output is nearly dense, and the network's output activations sit around
50 % sparsity.  This dynamic range is what motivates the *online* sparsity
measurement of Section 4.3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.sim.sweep import get_default_engine


@dataclass(frozen=True)
class SparsityRow:
    """Measured stage sparsities for one scene."""

    scene: str
    input_ray_marching: float
    output_relu1: float
    output: float


@experiment(
    "fig13",
    title="Input sparsity across rendering stages",
    tags=("sparsity", "nerf"),
    params={
        "scenes": "scenes to render",
        "image_size": "rendered image side length",
        "num_samples": "samples per ray",
    },
    columns=(
        Column("scene", "<8"),
        Column(
            "input (ray-marching) %",
            ">24.1f",
            value=lambda r: r.input_ray_marching * 100,
        ),
        Column("ReLU1 output %", ">16.4f", value=lambda r: r.output_relu1 * 100),
        Column("output %", ">10.1f", value=lambda r: r.output * 100),
    ),
)
def run(
    scenes: tuple[str, ...] = ("lego", "mic"),
    image_size: int = 48,
    num_samples: int = 32,
) -> list[SparsityRow]:
    """Render each scene with the fitted Instant-NGP model and record sparsity."""
    engine = get_default_engine()
    rows = []
    for scene_name in scenes:
        renderer, plan = engine.probe(scene_name, image_size, num_samples)
        stage = renderer.stage_sparsity(plan)
        rows.append(
            SparsityRow(
                scene=scene_name,
                input_ray_marching=stage["input_ray_marching"],
                output_relu1=stage["output_relu1"],
                output=stage["output"],
            )
        )
    return rows
