"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import Precision, SweepEngine, SweepSpec
from repro.core.compression import SparsityAwareCompressor
from repro.core.mac_array import MACArray
from repro.experiments._stats import geomean
from repro.nerf.models import MODEL_REGISTRY, FrameConfig
from repro.nerf.rays import Camera
from repro.nerf.renderer import InstantNGPRenderer, render_reference
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.scenes import get_scene
from repro.quant.metrics import psnr
from repro.sim.sweep import index_rows
from repro.sparse.tensor import random_sparse_matrix


class TestFullComparisonPipeline:
    """Workload -> GPU / NeuRex / FlexNeRFer comparison, as in Section 6.3."""

    @pytest.fixture(scope="class")
    def reports(self):
        engine = SweepEngine()
        rows = engine.run(
            SweepSpec(
                devices=("rtx-2080-ti", "neurex", "flexnerfer"),
                models=tuple(MODEL_REGISTRY),
                base_config=FrameConfig(),
            )
        )
        by_point = index_rows(rows, "device", "model")
        return {
            model: (
                by_point[("RTX 2080 Ti", model)].report,
                by_point[("NeuRex", model)].report,
                by_point[("FlexNeRFer", model)].report,
            )
            for model in MODEL_REGISTRY
        }

    def test_flexnerfer_is_fastest_on_every_model(self, reports):
        for name, (gpu_report, neurex_report, flex_report) in reports.items():
            assert flex_report.latency_s < gpu_report.latency_s, name
            assert flex_report.latency_s < neurex_report.latency_s, name

    def test_flexnerfer_is_most_energy_efficient(self, reports):
        for name, (gpu_report, _, flex_report) in reports.items():
            assert flex_report.energy_j < gpu_report.energy_j, name

    def test_headline_speedup_range(self, reports):
        """INT16, unpruned speedups land in the right order of magnitude."""
        speedups = [
            gpu.latency_s / flex.latency_s for gpu, _, flex in reports.values()
        ]
        assert 3.0 < geomean(speedups) < 40.0


class TestComputePathConsistency:
    def test_mac_array_gemm_matches_numpy_through_compression(self, rng):
        """Compress -> decompress -> dense-map -> reduce equals plain matmul."""
        compressor = SparsityAwareCompressor(Precision.INT8)
        array = MACArray(rows=8, cols=8)
        activations = random_sparse_matrix((12, 16), 0.6, Precision.INT8, rng)
        weights = random_sparse_matrix((16, 10), 0.5, Precision.INT8, rng)
        restored = compressor.decompress(compressor.compress_input(activations).encoded)
        compressor.analyze_weights("w", weights)
        restored_w = compressor.decompress(compressor.compress_weights("w", weights).encoded)
        result = array.gemm(restored, restored_w, Precision.INT8)
        np.testing.assert_array_equal(result, activations @ weights)


class TestRenderingQualityPipeline:
    def test_quantized_render_quality_ordering(self):
        scene = get_scene("mic")
        camera = Camera(width=20, height=20, focal=24.0)
        renderer = InstantNGPRenderer(
            HashGridConfig(num_levels=4, features_per_level=4, log2_table_size=12,
                           base_resolution=8, max_resolution=32)
        )
        renderer.fit_to_scene(scene)
        reference = render_reference(scene, camera, num_samples=16)
        fp32 = renderer.render(camera, num_samples=16)
        int4 = renderer.render(camera, num_samples=16, precision=Precision.INT4)
        assert psnr(reference, fp32) >= psnr(reference, int4) - 1e-6
