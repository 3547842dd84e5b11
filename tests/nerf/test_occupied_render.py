"""Differential: the occupied-row render equals the zero-filled dense render.

``InstantNGPRenderer.render_prepared`` quantizes and decodes only the
occupied rows of a plan, and ``SyntheticScene.density`` runs its distance
scan only on the rows its coarse grid cannot rule out.  Both must give
exactly what the dense computation gives on the inputs below (in general
the outlier-aware threshold can move by an ulp, see ``renderer.py``):

* the render against a test-local oracle that rebuilds the zero-filled
  feature matrix, quantizes it whole (``quantize`` or ``outlier_quantize``),
  decodes every row and masks the empty samples' density to 0;
* the filtered density against the unfiltered ``_scan_fields`` on points
  placed on, just inside and just outside every sphere's surface and every
  face of its bounding box.

The filter case follows ``REPRO_FUZZ_ITERATIONS`` (see
``tests/serve/test_properties.py``).
"""

import os

import numpy as np
import pytest

from repro.nerf.rays import Camera
from repro.nerf.renderer import InstantNGPRenderer
from repro.nerf.scenes import SyntheticScene, get_scene
from repro.nerf.volume import composite_rays
from repro.quant.outlier import outlier_quantize
from repro.quant.quantize import quantize
from repro.sparse.formats import Precision

SEED = 20261020
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

SCENES = ("lego", "mic", "palace")
SIZES = (8, 32, 48, 64)
SETTINGS = [(None, False)] + [
    (precision, outlier_aware)
    for precision in (Precision.INT4, Precision.INT8, Precision.INT16)
    for outlier_aware in (False, True)
]


def dense_render(renderer, plan, precision, outlier_aware):
    """The render the zero-filled feature matrix gives."""
    features = np.zeros((plan.occupied.size, plan.encoded.shape[1]))
    features[plan.occupied] = plan.encoded
    if precision is not None:
        quantizer = outlier_quantize if outlier_aware else quantize
        features = quantizer(features, precision).dequantize()
    density, color = renderer._decode(features)
    density = np.where(plan.occupied, density, 0.0)
    image = composite_rays(
        color.reshape(plan.num_rays, plan.samples, 3),
        density.reshape(plan.num_rays, plan.samples),
        plan.t_values,
    )
    return image.reshape(plan.camera.height, plan.camera.width, 3)


@pytest.fixture(scope="module")
def renderers():
    fitted = {}
    for name in SCENES:
        renderer = InstantNGPRenderer()
        renderer.fit_to_scene(get_scene(name))
        fitted[name] = renderer
    return fitted


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", SCENES)
def test_render_matches_the_dense_oracle(renderers, name, size):
    renderer = renderers[name]
    plan = renderer.prepare_render(Camera(width=size, height=size, focal=size * 1.2), 32)
    assert 0 < plan.encoded.shape[0] < plan.occupied.size
    for precision, outlier_aware in SETTINGS:
        np.testing.assert_array_equal(
            renderer.render_prepared(plan, precision, outlier_aware),
            dense_render(renderer, plan, precision, outlier_aware),
            err_msg=f"{name} {size}px {precision} outlier_aware={outlier_aware}",
        )


def test_view_with_no_occupied_samples(renderers):
    renderer = renderers["lego"]
    # Samples sit 3 to 5 units from the camera, far beyond the scene.
    camera = Camera(width=16, height=16, focal=19.2, origin=(0.0, 0.0, 40.0))
    plan = renderer.prepare_render(camera, 16)
    assert plan.encoded.shape == (0, renderer.config.output_dim)
    for precision, outlier_aware in SETTINGS:
        image = renderer.render_prepared(plan, precision, outlier_aware)
        np.testing.assert_array_equal(
            image, dense_render(renderer, plan, precision, outlier_aware)
        )
        np.testing.assert_array_equal(image, np.ones((16, 16, 3)))
    assert renderer.stage_sparsity(plan)["input_ray_marching"] == 1.0


def test_stage_sparsity_counts_the_zero_filled_matrix(renderers):
    renderer = renderers["mic"]
    plan = renderer.prepare_render(Camera(width=24, height=24, focal=28.8), 16)
    features = np.zeros((plan.occupied.size, plan.encoded.shape[1]))
    features[plan.occupied] = plan.encoded
    expected = 1.0 - np.count_nonzero(features) / features.size
    assert renderer.stage_sparsity(plan)["input_ray_marching"] == expected


def boundary_points(scene, rng):
    """Points on, just inside and just outside each sphere and each box face."""
    points = []
    for center, radius in zip(scene._centers, scene._radii):
        directions = rng.normal(size=(8, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        for scale in (1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.1):
            points.append(center + radius * scale * directions)
        # Box faces: one coordinate on the face, the others inside the box.
        for axis in range(3):
            face = center + rng.uniform(-radius, radius, size=(6, 3))
            for sign in (-1.0, 1.0):
                for nudge in (-1e-12, 0.0, 1e-12):
                    moved = face.copy()
                    moved[:, axis] = center[axis] + sign * radius * (1.0 + nudge)
                    points.append(moved)
    return np.concatenate(points)


def random_scene(rng):
    return SyntheticScene(
        "fuzz",
        complexity=1.0,
        target_occupancy=float(rng.uniform(0.02, 0.9)),
        num_primitives=int(rng.integers(1, 25)),
        seed=int(rng.integers(0, 2**31)),
    )


def assert_filter_is_exact(scene, points):
    points = np.ascontiguousarray(points)
    unfiltered, _ = scene._scan_fields(points, want_nearest=False)
    np.testing.assert_array_equal(scene.density(points), unfiltered)


@pytest.mark.parametrize("name", SCENES)
def test_candidate_filter_is_exact_on_library_scenes(name):
    scene = get_scene(name)
    assert_filter_is_exact(scene, boundary_points(scene, np.random.default_rng(SEED)))


def test_candidate_filter_is_exact_on_random_scenes():
    rng = np.random.default_rng(SEED)
    for _ in range(ITERATIONS):
        scene = random_scene(rng)
        points = boundary_points(scene, rng)
        assert_filter_is_exact(scene, points)
        # A lone point goes through the scan by itself.
        assert_filter_is_exact(scene, points[:1])


def test_candidate_filter_skips_far_points_and_keeps_non_finite_ones():
    scene = get_scene("mic")
    far = np.array([[5.0, 5.0, 5.0], [-3.0, 0.0, 0.0]])
    assert scene._candidate_rows(far).size == 0
    np.testing.assert_array_equal(scene.density(far), [0.0, 0.0])
    odd = np.array([[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        unfiltered, _ = scene._scan_fields(odd, want_nearest=False)
        np.testing.assert_array_equal(scene.density(odd), unfiltered)
