"""Tests for outlier-aware quantization and the PSNR / MSE metrics."""

import numpy as np
import pytest

from repro.quant.metrics import mse, psnr
from repro.quant.outlier import outlier_quantize
from repro.quant.quantize import quantize
from repro.sparse.formats import Precision


def _heavy_tailed(rng, size=4096):
    """A distribution with rare large outliers (like NeRF feature tensors)."""
    body = rng.normal(0, 0.1, size=size)
    outlier_positions = rng.choice(size, size=size // 100, replace=False)
    body[outlier_positions] = rng.normal(0, 5.0, size=outlier_positions.size)
    return body


class TestOutlierQuantize:
    def test_outlier_fraction_is_small(self, rng):
        tensor = _heavy_tailed(rng)
        result = outlier_quantize(tensor, Precision.INT4)
        assert 0.0 < result.outlier_fraction < 0.1

    def test_outlier_aware_beats_plain_quantization(self, rng):
        """Keeping outliers at INT16 recovers accuracy (paper Fig. 20(a))."""
        tensor = _heavy_tailed(rng)
        for precision in (Precision.INT4, Precision.INT8):
            plain_error = np.mean((quantize(tensor, precision).dequantize() - tensor) ** 2)
            aware_error = np.mean((outlier_quantize(tensor, precision).dequantize() - tensor) ** 2)
            assert aware_error < plain_error

    def test_shape_preserved(self, rng):
        tensor = rng.normal(size=(16, 8))
        assert outlier_quantize(tensor, Precision.INT8).dequantize().shape == (16, 8)

    def test_empty_tensor(self):
        result = outlier_quantize(np.zeros((0,)), Precision.INT8)
        assert result.outlier_fraction == 0.0
        assert result.dequantize().size == 0

    def test_uniform_tensor_has_no_outliers(self):
        result = outlier_quantize(np.ones(100), Precision.INT8)
        assert result.outlier_indices.size == 0

    @pytest.mark.parametrize("precision", [Precision.INT4, Precision.INT8, Precision.INT16])
    def test_omitted_zeros_count_like_present_ones(self, rng, precision):
        rows = _heavy_tailed(rng, size=1200).reshape(50, 24)
        dense = np.zeros((400, 24))
        dense[::8] = rows
        result = outlier_quantize(rows, precision, omitted_zeros=350 * 24)
        np.testing.assert_array_equal(
            result.dequantize(), outlier_quantize(dense, precision).dequantize()[::8]
        )

    @pytest.mark.parametrize("count", [-1, 2.5, float("nan"), True])
    def test_omitted_zeros_must_be_a_count(self, count):
        with pytest.raises(ValueError, match="omitted_zeros"):
            outlier_quantize(np.ones(4), Precision.INT8, omitted_zeros=count)


class TestMetrics:
    def test_identical_images_infinite_psnr(self):
        image = np.random.default_rng(0).random((8, 8, 3))
        assert psnr(image, image) == float("inf")

    def test_mse_basic(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.5)
        assert mse(a, b) == pytest.approx(0.25)

    def test_psnr_decreases_with_noise(self, rng):
        image = rng.random((16, 16, 3))
        small_noise = image + rng.normal(0, 0.01, image.shape)
        big_noise = image + rng.normal(0, 0.1, image.shape)
        assert psnr(image, small_noise) > psnr(image, big_noise)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_invalid_data_range(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(4), np.zeros(4), data_range=0.0)

    @pytest.mark.parametrize("data_range", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_data_range(self, data_range):
        with pytest.raises(ValueError, match="data_range must be positive"):
            psnr(np.zeros(4), np.ones(4), data_range=data_range)
