"""Tests for ray generation, sampling and positional encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nerf.positional import (
    approx_cos_halfpi,
    approx_positional_encoding,
    approx_sin_halfpi,
    positional_encoding,
)
from repro.nerf.rays import Camera, generate_rays, sample_along_rays

NAN, INF = float("nan"), float("inf")


class TestCameraAndRays:
    def test_ray_count_and_normalisation(self):
        camera = Camera(width=8, height=6, focal=10.0)
        origins, directions = generate_rays(camera)
        assert origins.shape == (48, 3)
        assert directions.shape == (48, 3)
        np.testing.assert_allclose(np.linalg.norm(directions, axis=-1), 1.0)

    def test_invalid_camera(self):
        with pytest.raises(ValueError):
            Camera(width=0, height=4, focal=1.0)
        with pytest.raises(ValueError):
            Camera(width=4, height=4, focal=-1.0)

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("value", [NAN, INF, -INF, 2.5, True])
    def test_dimensions_must_be_integer_counts(self, field, value):
        args = {"width": 4, "height": 4, "focal": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be >= 1 and an integer"):
            Camera(**args)

    @pytest.mark.parametrize("value", [NAN, INF, -INF])
    def test_focal_must_be_finite(self, value):
        with pytest.raises(ValueError, match="focal must be positive and finite"):
            Camera(width=4, height=4, focal=value)

    def test_sampling_within_bounds(self, rng):
        camera = Camera(width=4, height=4, focal=5.0)
        origins, directions = generate_rays(camera)
        points, t_values = sample_along_rays(origins, directions, 16, near=2.0, far=6.0, rng=rng)
        assert points.shape == (16, 16, 3)
        assert t_values.min() >= 2.0
        assert t_values.max() <= 6.0

    def test_t_values_monotonic(self, rng):
        origins = np.zeros((3, 3))
        directions = np.tile([0.0, 0.0, -1.0], (3, 1))
        _, t_values = sample_along_rays(origins, directions, 32, rng=rng)
        assert np.all(np.diff(t_values, axis=-1) > 0)

    def test_deterministic_midpoints_without_stratification(self):
        origins = np.zeros((1, 3))
        directions = np.array([[0.0, 0.0, -1.0]])
        _, t_values = sample_along_rays(origins, directions, 4, near=0.0, far=4.0, stratified=False)
        np.testing.assert_allclose(t_values[0], [0.5, 1.5, 2.5, 3.5])

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            sample_along_rays(np.zeros((2, 3)), np.zeros((3, 3)), 4, rng=rng)
        with pytest.raises(ValueError):
            sample_along_rays(np.zeros((2, 3)), np.zeros((2, 3)), 0, rng=rng)
        with pytest.raises(ValueError):
            sample_along_rays(np.zeros((2, 3)), np.zeros((2, 3)), 4, near=5, far=2, rng=rng)

    @pytest.mark.parametrize("value", [NAN, INF, -INF, 2.5, True])
    def test_num_samples_must_be_an_integer_count(self, rng, value):
        with pytest.raises(ValueError, match="num_samples must be >= 1 and an integer"):
            sample_along_rays(np.zeros((2, 3)), np.zeros((2, 3)), value, rng=rng)


class TestPositionalEncoding:
    def test_output_dim(self):
        values = np.zeros((10, 3))
        encoded = positional_encoding(values, 10)
        assert encoded.shape == (10, 60)
        assert positional_encoding(values, 10, include_input=True).shape == (10, 63)

    def test_include_input(self):
        values = np.ones((5, 2))
        encoded = positional_encoding(values, 4, include_input=True)
        np.testing.assert_array_equal(encoded[:, :2], values)

    def test_values_bounded(self, rng):
        encoded = positional_encoding(rng.normal(size=(50, 3)), 8)
        assert np.all(np.abs(encoded) <= 1.0 + 1e-12)

    def test_first_band_matches_eq1(self):
        values = np.array([[0.25]])
        encoded = positional_encoding(values, 1)
        np.testing.assert_allclose(
            encoded[0], [np.sin(np.pi * 0.25), np.cos(np.pi * 0.25)]
        )

    def test_rejects_zero_frequencies(self):
        with pytest.raises(ValueError):
            positional_encoding(np.zeros((1, 3)), 0)

    @pytest.mark.parametrize(
        "encode", [positional_encoding, approx_positional_encoding]
    )
    @pytest.mark.parametrize("value", [NAN, INF, -INF, 2.5, True])
    def test_num_frequencies_must_be_an_integer_count(self, encode, value):
        with pytest.raises(ValueError, match="num_frequencies must be >= 1 and an integer"):
            encode(np.zeros((1, 3)), value)


class TestHardwareApproximation:
    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    def test_exact_at_integer_points(self, value):
        """Eq. (5)-(6) are exact wherever sin/cos hit 0 or +/-1."""
        assert approx_sin_halfpi(value) == pytest.approx(np.sin(np.pi * value / 2), abs=1e-9)
        assert approx_cos_halfpi(value) == pytest.approx(np.cos(np.pi * value / 2), abs=1e-9)

    def test_bounded_error_between_grid_points(self):
        """Between integer points the parabolic approximation stays within ~7 %."""
        values = np.linspace(0.0, 4.0, 401)
        error = np.abs(approx_sin_halfpi(values) - np.sin(np.pi * values / 2))
        assert error.max() < 0.08

    def test_approximation_tracks_exact_shape(self, rng):
        values = rng.uniform(0, 4, size=1000)
        approx = approx_sin_halfpi(values)
        exact = np.sin(np.pi * values / 2)
        # piece-wise quadratic approximation: bounded error, matching sign
        assert np.max(np.abs(approx - exact)) < 0.3
        same_sign = np.sign(approx) == np.sign(exact)
        assert np.mean(same_sign | (np.abs(exact) < 1e-6)) > 0.99

    def test_approx_encoding_shape_matches_exact(self, rng):
        values = rng.uniform(0, 1, size=(20, 3))
        assert (
            approx_positional_encoding(values, 6).shape
            == positional_encoding(values, 6).shape
        )


@given(st.floats(-8.0, 8.0))
@settings(max_examples=100, deadline=None)
def test_approx_sin_bounded(value):
    """The approximated trig functions never exceed unit magnitude."""
    assert abs(approx_sin_halfpi(value)) <= 1.0 + 1e-9
    assert abs(approx_cos_halfpi(value)) <= 1.0 + 1e-9
