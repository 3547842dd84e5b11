"""Tests for the synthetic scenes and the functional renderer."""

import numpy as np
import pytest

from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.rays import Camera
from repro.nerf.renderer import PROBE_GRID, InstantNGPRenderer, render_reference
from repro.nerf.scenes import SCENE_LIBRARY, SyntheticScene, get_scene
from repro.quant.metrics import psnr
from repro.sparse.formats import Precision

SMALL_CAMERA = Camera(width=24, height=24, focal=28.0)
SMALL_GRID = HashGridConfig(
    num_levels=4, features_per_level=4, log2_table_size=12,
    base_resolution=8, max_resolution=32,
)


class TestScenes:
    def test_library_contains_paper_scenes(self):
        for name in ("lego", "mic", "palace"):
            assert name in SCENE_LIBRARY

    def test_measured_occupancy_tracks_target(self):
        for name in ("lego", "mic"):
            scene = get_scene(name)
            measured = scene.measured_occupancy(num_samples=30000)
            assert measured == pytest.approx(scene.target_occupancy, abs=0.12)

    def test_mic_sparser_than_lego(self):
        assert get_scene("mic").ray_marching_sparsity > get_scene("lego").ray_marching_sparsity

    def test_palace_more_complex_than_mic(self):
        palace, mic = get_scene("palace"), get_scene("mic")
        assert palace.complexity > mic.complexity
        assert palace.num_primitives > mic.num_primitives

    def test_density_and_color_shapes(self, rng):
        scene = get_scene("lego")
        points = rng.uniform(-1, 1, size=(50, 3))
        assert scene.density(points).shape == (50,)
        assert scene.color(points).shape == (50, 3)
        assert scene.density(points).min() >= 0.0

    def test_unknown_scene(self):
        with pytest.raises(KeyError):
            get_scene("millennium-falcon")

    def test_invalid_scene_parameters(self):
        with pytest.raises(ValueError):
            SyntheticScene(name="bad", complexity=1.0, target_occupancy=0.0, num_primitives=4)
        with pytest.raises(ValueError):
            SyntheticScene(name="bad", complexity=1.0, target_occupancy=0.5, num_primitives=0)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 2.5, True]
    )
    def test_num_primitives_must_be_an_integer_count(self, value):
        with pytest.raises(ValueError, match="num_primitives must be >= 1 and an integer"):
            SyntheticScene(
                name="bad", complexity=1.0, target_occupancy=0.5, num_primitives=value
            )


class TestReferenceRender:
    def test_reference_image_shape_and_range(self):
        image = render_reference(get_scene("mic"), SMALL_CAMERA, num_samples=24)
        assert image.shape == (24, 24, 3)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_scene_content_visible(self):
        """The rendered scene is not a uniform background."""
        image = render_reference(get_scene("lego"), SMALL_CAMERA, num_samples=24)
        assert image.std() > 0.01


class TestInstantNGPRenderer:
    def _fitted(self, scene_name="lego"):
        renderer = InstantNGPRenderer(SMALL_GRID)
        renderer.fit_to_scene(get_scene(scene_name))
        return renderer

    def test_requires_fitting(self):
        with pytest.raises(RuntimeError):
            InstantNGPRenderer(SMALL_GRID).render(SMALL_CAMERA)

    def test_fitted_render_approximates_reference(self):
        renderer = self._fitted()
        image = renderer.render(SMALL_CAMERA, num_samples=24)
        reference = render_reference(get_scene("lego"), SMALL_CAMERA, num_samples=24)
        assert psnr(reference, image) > 12.0

    def test_default_grid_is_the_probe_grid(self):
        assert InstantNGPRenderer().config == PROBE_GRID

    def test_stage_sparsity_of_a_plan(self):
        renderer = self._fitted()
        stages = renderer.stage_sparsity(renderer.prepare_render(SMALL_CAMERA, num_samples=16))
        assert set(stages) == {"input_ray_marching", "output_relu1", "output"}
        assert stages["input_ray_marching"] > 0.5
        assert stages["output_relu1"] < 0.2

    def test_sparser_scene_has_sparser_input(self):
        lego, mic = (
            renderer.stage_sparsity(renderer.prepare_render(SMALL_CAMERA, num_samples=16))
            for renderer in (self._fitted("lego"), self._fitted("mic"))
        )
        assert mic["input_ray_marching"] > lego["input_ray_marching"]

    def test_int16_quantization_nearly_lossless(self):
        renderer = self._fitted()
        fp32 = renderer.render(SMALL_CAMERA, num_samples=16)
        int16 = renderer.render(SMALL_CAMERA, num_samples=16, precision=Precision.INT16)
        assert psnr(fp32, int16) > 40.0

    def test_lower_precision_degrades_quality(self):
        renderer = self._fitted()
        fp32 = renderer.render(SMALL_CAMERA, num_samples=16)
        int8 = renderer.render(SMALL_CAMERA, num_samples=16, precision=Precision.INT8)
        int4 = renderer.render(SMALL_CAMERA, num_samples=16, precision=Precision.INT4)
        assert psnr(fp32, int8) >= psnr(fp32, int4)

    def test_prepared_render_matches_direct_render(self):
        renderer = self._fitted()
        direct = renderer.render(SMALL_CAMERA, num_samples=16)
        plan = renderer.prepare_render(SMALL_CAMERA, num_samples=16)
        np.testing.assert_array_equal(renderer.render_prepared(plan), direct)
        # A plan is reusable: per-precision renders off one plan equal the
        # per-precision direct renders.
        direct_int8 = renderer.render(SMALL_CAMERA, num_samples=16, precision=Precision.INT8)
        np.testing.assert_array_equal(
            renderer.render_prepared(plan, precision=Precision.INT8),
            direct_int8,
        )

    def test_plan_features_not_mutated_by_quantized_render(self):
        renderer = self._fitted()
        plan = renderer.prepare_render(SMALL_CAMERA, num_samples=16)
        before = plan.encoded.copy()
        renderer.render_prepared(plan, precision=Precision.INT4)
        np.testing.assert_array_equal(plan.encoded, before)

    def test_stage_sparsity_runs_single_mlp_forward(self, monkeypatch):
        # The stage-sparsity probe reuses the first layer's activations for
        # the rest of the forward pass instead of re-running the whole MLP.
        renderer = self._fitted()
        plan = renderer.prepare_render(SMALL_CAMERA, num_samples=16)
        first_layer = renderer.mlp.layers[0]
        calls = {"n": 0}
        original = type(first_layer).forward

        def counting(self, x):
            if self is first_layer:
                calls["n"] += 1
            return original(self, x)

        monkeypatch.setattr(type(first_layer), "forward", counting)
        renderer.stage_sparsity(plan)
        assert calls["n"] == 1


class TestMLPForwardStart:
    def test_start_resumes_mid_network(self):
        from repro.nerf.mlp import MLP

        rng = np.random.default_rng(0)
        mlp = MLP.build([8, 16, 16, 4], rng=np.random.default_rng(3))
        x = rng.normal(size=(10, 8))
        full = mlp.forward(x)
        hidden1 = mlp.layers[0].forward(x)
        np.testing.assert_array_equal(mlp.forward(hidden1, start=1), full)
