"""Functional NeRF rendering with quantization (paper Fig. 20(a) in miniature).

Fits the Instant-NGP-style renderer to a synthetic scene, renders it in FP32
and at INT16/8/4 (plain and outlier-aware), reports the PSNR of each variant,
and prints the per-stage activation sparsity that motivates FlexNeRFer's
online sparsity-aware compression (paper Fig. 13(a)).

Run with:  python examples/render_and_quantize.py
"""

from __future__ import annotations

from repro import Precision
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.rays import Camera
from repro.nerf.renderer import InstantNGPRenderer, render_reference
from repro.nerf.scenes import get_scene
from repro.quant.metrics import psnr


def main(scene_name: str = "lego", image_size: int = 64) -> None:
    scene = get_scene(scene_name)
    camera = Camera(width=image_size, height=image_size, focal=image_size * 1.2)
    renderer = InstantNGPRenderer(
        HashGridConfig(
            num_levels=6, features_per_level=4, log2_table_size=14,
            base_resolution=8, max_resolution=96,
        )
    )
    renderer.fit_to_scene(scene)

    reference = render_reference(scene, camera, num_samples=48)
    # Rays, occupancy and the FP32 encode are prepared once; every
    # quantization setting below re-renders off the same plan.
    plan = renderer.prepare_render(camera, num_samples=48)
    fp32 = renderer.render_prepared(plan)
    print(f"Scene '{scene_name}' ({image_size}x{image_size})")
    print(f"  model PSNR vs oracle reference: {psnr(reference, fp32):.1f} dB")

    print("\nStage sparsity (drives the online format selection):")
    for stage, value in renderer.stage_sparsity(plan).items():
        print(f"  {stage:<22} {value * 100:6.2f}%")

    print("\nQuantization study (PSNR vs the FP32 render):")
    settings = [
        ("INT16", Precision.INT16, False),
        ("INT8", Precision.INT8, False),
        ("INT4", Precision.INT4, False),
        ("INT8 + outliers", Precision.INT8, True),
        ("INT4 + outliers", Precision.INT4, True),
    ]
    for label, precision, outlier_aware in settings:
        image = renderer.render_prepared(
            plan, precision=precision, outlier_aware=outlier_aware
        )
        print(f"  {label:<16} {psnr(fp32, image):6.1f} dB")


if __name__ == "__main__":
    main()
