"""Tests for the hash grid, the MLP and volume rendering."""

import numpy as np
import pytest

from repro.nerf.hashgrid import HashGrid, HashGridConfig
from repro.nerf.mlp import MLP, LinearLayer, relu
from repro.nerf.volume import composite_rays, transmittance_weights


class TestHashGrid:
    def _small_grid(self):
        return HashGrid(
            HashGridConfig(
                num_levels=4,
                features_per_level=2,
                log2_table_size=10,
                base_resolution=4,
                max_resolution=32,
            )
        )

    def test_output_shape(self, rng):
        grid = self._small_grid()
        points = rng.random((100, 3))
        features = grid.encode(points)
        assert features.shape == (100, grid.output_dim)

    def test_resolutions_grow_geometrically(self):
        grid = self._small_grid()
        resolutions = [grid.config.resolution(level) for level in range(4)]
        assert resolutions[0] == 4
        assert resolutions[-1] == 32
        assert all(b >= a for a, b in zip(resolutions, resolutions[1:]))

    def test_fine_levels_use_hashing(self):
        config = HashGridConfig(num_levels=8, log2_table_size=10, base_resolution=4, max_resolution=128)
        grid = HashGrid(config)
        grid.encode(np.random.default_rng(0).random((10, 3)))
        uses_hash = [stat.uses_hash for stat in grid.last_level_stats]
        assert not uses_hash[0]       # coarse level is dense
        assert uses_hash[-1]          # finest level exceeds the table size

    def test_interpolation_is_continuous(self, rng):
        """Nearby points produce nearby features (trilinear interpolation)."""
        grid = self._small_grid()
        point = np.array([[0.5, 0.5, 0.5]])
        nearby = point + 1e-4
        delta = np.abs(grid.encode(point) - grid.encode(nearby))
        assert delta.max() < 1e-2

    def test_coalescing_statistics(self, rng):
        grid = self._small_grid()
        grid.encode(rng.random((500, 3)))
        coarse = grid.last_level_stats[0]
        assert coarse.num_lookups == 500 * 8
        assert coarse.unique_indices <= (grid.config.resolution(0) + 1) ** 3
        assert coarse.coalescing_factor > 1.0

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            self._small_grid().encode(np.zeros((5, 2)))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            HashGridConfig(num_levels=0)
        with pytest.raises(ValueError):
            HashGridConfig(base_resolution=64, max_resolution=16)

    @pytest.mark.parametrize(
        "field",
        [
            "num_levels",
            "features_per_level",
            "log2_table_size",
            "base_resolution",
            "max_resolution",
        ],
    )
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 2.5, True]
    )
    def test_config_fields_must_be_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= .* and an integer"):
            HashGridConfig(**{field: value})


class TestMLP:
    def test_forward_shapes(self, rng):
        mlp = MLP.build([8, 16, 4], rng=rng)
        assert mlp.forward(rng.normal(size=(10, 8))).shape == (10, 4)

    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_gemm_shapes(self, rng):
        mlp = MLP.build([8, 16, 4], rng=rng)
        assert [(layer.in_features, layer.out_features) for layer in mlp.layers] == [(8, 16), (16, 4)]
        assert mlp.forward(np.zeros((100, 8))).shape == (100, 4)

    def test_num_parameters(self, rng):
        mlp = MLP.build([8, 16, 4], rng=rng)
        count = sum(layer.weight.size + layer.bias.size for layer in mlp.layers)
        assert count == 8 * 16 + 16 + 16 * 4 + 4

    def test_structured_pruning_zeroes_columns(self, rng):
        layer = LinearLayer.random(32, 64, rng=rng)
        layer.prune(0.5)
        assert layer.weight_sparsity() == pytest.approx(0.5)
        zero_cols = np.all(layer.weight == 0, axis=0)
        assert zero_cols.sum() == 32

    def test_prune_rejects_invalid_ratio(self, rng):
        with pytest.raises(ValueError):
            LinearLayer.random(4, 4, rng=rng).prune(1.0)

    def test_invalid_layer_shapes(self):
        with pytest.raises(ValueError):
            LinearLayer(weight=np.zeros((4, 4)), bias=np.zeros(3))
        with pytest.raises(ValueError):
            MLP.build([8])

    def test_sigmoid_output_bounded(self, rng):
        mlp = MLP.build([4, 8, 2], final_activation="sigmoid", rng=rng)
        out = mlp.forward(rng.normal(size=(20, 4)) * 10)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestVolumeRendering:
    def test_weights_sum_below_one(self, rng):
        densities = rng.uniform(0, 5, size=(10, 16))
        deltas = np.full((10, 16), 0.1)
        weights = transmittance_weights(densities, deltas)
        assert np.all(weights >= 0)
        assert np.all(weights.sum(axis=-1) <= 1.0 + 1e-9)

    def test_empty_space_gives_white_background(self):
        colors = np.zeros((5, 8, 3))
        densities = np.zeros((5, 8))
        t_values = np.tile(np.linspace(2, 6, 8), (5, 1))
        image = composite_rays(colors, densities, t_values, white_background=True)
        np.testing.assert_allclose(image, 1.0)

    def test_opaque_first_sample_dominates(self):
        colors = np.zeros((1, 4, 3))
        colors[0, 0] = [1.0, 0.0, 0.0]
        densities = np.array([[1000.0, 0.0, 0.0, 0.0]])
        t_values = np.array([[2.0, 3.0, 4.0, 5.0]])
        image = composite_rays(colors, densities, t_values)
        np.testing.assert_allclose(image[0], [1.0, 0.0, 0.0], atol=1e-6)

    def test_output_clipped_to_unit_range(self, rng):
        colors = rng.uniform(0, 2, size=(4, 8, 3))
        densities = rng.uniform(0, 10, size=(4, 8))
        t_values = np.tile(np.linspace(2, 6, 8), (4, 1))
        image = composite_rays(colors, densities, t_values)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_expected_depth_matches_opaque_surface(self):
        densities = np.array([[0.0, 1000.0, 0.0]])
        t_values = np.array([[2.0, 4.0, 6.0]])
        weights = transmittance_weights(densities, np.array([[2.0, 2.0, 1e10]]))
        depth = np.sum(weights * t_values, axis=-1) / np.sum(weights, axis=-1)
        assert depth[0] == pytest.approx(4.0, abs=1e-3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transmittance_weights(np.zeros((2, 3)), np.zeros((2, 4)))
