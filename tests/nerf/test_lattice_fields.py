"""Fuzz: ``SyntheticScene.lattice_fields`` equals an unculled brute-force scan.

``lattice_fields`` sums per-axis squared offsets instead of running the
GEMM scan per vertex, and evaluates each sphere's density only on the
index box around it.  The oracle below uses the same separable kernel on
the full ``(m, m, m, P)`` block with no culling and no chunking, so the
two must agree exactly (``array_equal``), including vertices at exactly a
sphere's radius and mirrored centres that tie for nearest.  Against the
GEMM ``fields`` scan on the library scenes at the fit lattices in use,
densities agree within the parity tolerance of
``test_scene_field_parity.py`` and colours exactly.  The budget follows
``REPRO_FUZZ_ITERATIONS`` (see ``tests/serve/test_properties.py``).
"""

import os

import numpy as np
import pytest

import repro.nerf.scenes as scenes_module
from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.scenes import SCENE_LIBRARY, SyntheticScene

SEED = 20261019
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

#: The fit configs of fig13 / fig20a / the serve ladders, and of test_asset_tier.py.
FIT_CONFIGS = (
    HashGridConfig(num_levels=6, features_per_level=4, log2_table_size=13,
                   base_resolution=8, max_resolution=64),
    HashGridConfig(num_levels=4, features_per_level=4, log2_table_size=10,
                   base_resolution=4, max_resolution=16),
)


def oracle(scene, axis):
    """Unculled, unchunked separable scan over every vertex and primitive."""
    dx2, dy2, dz2 = ((axis[:, None] - scene._centers[:, d]) ** 2 for d in range(3))
    sq = (dx2[:, None, None, :] + dy2[None, :, None, :]) + dz2[None, None, :, :]
    inside = np.clip((scene._radii - np.sqrt(sq)) / (0.1 * scene._radii), 0.0, 1.0)
    nearest = np.argmin(sq, axis=-1).reshape(-1)
    return 30.0 * inside.max(axis=-1).reshape(-1), scene._colors[nearest]


def placed_scene(centers, radii):
    """A scene whose primitives sit at the given centres and radii."""
    scene = SyntheticScene("placed", 1.0, 0.2, num_primitives=len(radii))
    scene._centers = np.asarray(centers, dtype=np.float64)
    scene._radii = np.asarray(radii, dtype=np.float64)
    scene._center_sq = np.einsum("ij,ij->i", scene._centers, scene._centers)
    return scene


def assert_matches_oracle(scene, axis):
    density, color = scene.lattice_fields(axis)
    want_density, want_color = oracle(scene, axis)
    np.testing.assert_array_equal(density, want_density)
    np.testing.assert_array_equal(color, want_color)


def random_case(rng):
    scene = SyntheticScene(
        "fuzz",
        complexity=1.0,
        target_occupancy=float(rng.uniform(0.02, 0.9)),
        num_primitives=int(rng.integers(1, 25)),
        seed=int(rng.integers(0, 2**31)),
    )
    m = int(rng.integers(1, 14))
    if rng.random() < 0.5:
        axis = -1.0 + np.linspace(0.0, 1.0, m) * 2.0
    else:
        axis = np.sort(rng.uniform(-1.3, 1.3, size=m))
    return scene, axis


def test_random_scenes_match_the_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(ITERATIONS):
        assert_matches_oracle(*random_case(rng))


def test_vertices_at_exactly_the_radius():
    axis = np.arange(-1.0, 1.0 + 0.125, 0.25)
    scene = placed_scene([[0.0, 0.0, 0.0], [0.25, -0.5, 0.5]], [0.5, 0.5])
    density, _ = scene.lattice_fields(axis)
    grid = density.reshape(len(axis), len(axis), len(axis))
    half, zero = list(axis).index(0.5), list(axis).index(0.0)
    # (0.5, 0, 0) is exactly r from the first centre: zero density there,
    # and full density at the centre itself.
    assert grid[half, zero, zero] == 0.0
    assert grid[zero, zero, zero] == 30.0
    assert_matches_oracle(scene, axis)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_mirrored_centres_tie_to_the_lowest_index(order):
    axis = np.arange(-1.0, 1.0 + 0.125, 0.25)
    mirrored = [[0.125, 0.0, 0.0], [-0.125, 0.0, 0.0]]
    scene = placed_scene([mirrored[i] for i in order], [0.3, 0.3])
    _, color = scene.lattice_fields(axis)
    plane = color.reshape(len(axis), len(axis), len(axis), 3)[np.isclose(axis, 0.0)]
    # Every vertex on x = 0 is equidistant from both centres.
    assert (plane == scene._colors[0]).all()
    assert_matches_oracle(scene, axis)


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_chunk_budget_does_not_change_the_result(monkeypatch, budget):
    rng = np.random.default_rng(SEED + budget)
    cases = [random_case(rng) for _ in range(max(1, ITERATIONS // 20))]
    expected = [scene.lattice_fields(axis) for scene, axis in cases]
    monkeypatch.setattr(scenes_module, "_CHUNK_BUDGET", budget)
    for (scene, axis), (density, color) in zip(cases, expected):
        got_density, got_color = scene.lattice_fields(axis)
        np.testing.assert_array_equal(got_density, density)
        np.testing.assert_array_equal(got_color, color)


@pytest.mark.parametrize("name", sorted(SCENE_LIBRARY))
@pytest.mark.parametrize("config", FIT_CONFIGS, ids=["fig13", "asset-tier"])
def test_fit_lattices_match_the_gemm_scan(name, config):
    scene = SCENE_LIBRARY[name]
    low, high = scene.bounds
    for level in range(config.num_levels):
        axis = low + np.linspace(0.0, 1.0, config.resolution(level) + 1) * (high - low)
        vertices = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        density, color, _ = scene.fields(vertices.reshape(-1, 3))
        got_density, got_color = scene.lattice_fields(axis)
        np.testing.assert_allclose(got_density, density, rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(got_color, color)
