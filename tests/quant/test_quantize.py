"""Tests for symmetric quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.quant.quantize import quantize
from repro.sparse.formats import Precision


class TestQuantize:
    def test_values_stay_in_range(self, rng):
        tensor = rng.normal(0, 10, size=(64, 64))
        for precision in Precision:
            q = quantize(tensor, precision)
            assert q.data.max() <= precision.max_value
            assert q.data.min() >= precision.min_value

    def test_roundtrip_error_bounded_by_step(self, rng):
        tensor = rng.uniform(-1, 1, size=(100,))
        q = quantize(tensor, Precision.INT16)
        np.testing.assert_allclose(q.dequantize(), tensor, atol=q.scale)

    def test_higher_precision_smaller_error(self, rng):
        tensor = rng.normal(0, 1, size=(500,))
        errors = [
            np.sqrt(np.mean((tensor - quantize(tensor, p).dequantize()) ** 2))
            for p in (Precision.INT4, Precision.INT8, Precision.INT16)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_explicit_scale_is_used(self):
        q = quantize(np.array([1.0, 2.0]), Precision.INT8, scale=0.5)
        np.testing.assert_array_equal(q.data, [2, 4])

    def test_zero_tensor(self):
        q = quantize(np.zeros(10), Precision.INT8)
        assert np.all(q.data == 0)
        assert q.scale == 1.0

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            quantize(np.ones(4), Precision.INT8, scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            quantize(np.ones(4), Precision.INT8, scale=scale)


@given(
    tensor=arrays(
        dtype=np.float64,
        shape=st.integers(1, 64),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ),
    precision=st.sampled_from(list(Precision)),
)
@settings(max_examples=80, deadline=None)
def test_dequantized_error_bounded_by_half_step_times_clip(tensor, precision):
    """|x - dequant(quant(x))| <= scale/2 for values inside the clip range."""
    q = quantize(tensor, precision)
    reconstructed = q.dequantize()
    inside = np.abs(tensor) <= precision.max_value * q.scale
    np.testing.assert_array_less(
        np.abs(tensor[inside] - reconstructed[inside]), q.scale * 0.5 + 1e-12
    )
