"""Symmetric integer quantization for the precisions supported by the MAC array."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.formats import Precision
from repro.validate import require_positive


@dataclass
class QuantizedTensor:
    """An integer tensor together with the scale used to quantize it."""

    data: np.ndarray
    scale: float
    precision: Precision

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point values."""
        return self.data.astype(np.float64) * self.scale


def quantize(
    tensor: np.ndarray,
    precision: Precision,
    scale: float | None = None,
) -> QuantizedTensor:
    """Symmetrically quantize ``tensor`` to ``precision``.

    The scale maps the maximum absolute value to the largest representable
    integer unless an explicit ``scale`` is given (used to share scales across
    tensors that are accumulated together).
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if scale is None:
        max_abs = float(np.max(np.abs(tensor))) if tensor.size else 0.0
        scale = max_abs / precision.max_value if max_abs > 0 else 1.0
        if scale == 0.0:
            # Subnormal inputs can underflow the division; fall back to a unit
            # scale, which quantizes such values to zero.
            scale = 1.0
    require_positive("scale", scale)
    quantized = np.clip(
        np.round(tensor / scale), precision.min_value, precision.max_value
    ).astype(np.int32)
    return QuantizedTensor(data=quantized, scale=scale, precision=precision)
