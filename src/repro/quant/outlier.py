"""Outlier-aware mixed-precision quantization.

Paper Fig. 20(a): plain INT4/INT8 quantization of Instant-NGP loses more than
3 dB of PSNR, but keeping a small set of outlier values in INT16 (similar to
outlier-aware accelerators [61, 86]) recovers most of the quality -- INT8
reaches near-FP32 PSNR and INT4 stays within ~1.4 dB.  The paper keeps the
3-sigma outliers for INT8 and the 1-sigma outliers for INT4 in INT16.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.quantize import QuantizedTensor, quantize
from repro.sparse.formats import Precision
from repro.validate import require_count

#: Sigma thresholds used in the paper for each low-precision mode.
DEFAULT_SIGMA_THRESHOLD = {
    Precision.INT8: 3.0,
    Precision.INT4: 1.0,
    Precision.INT16: 6.0,
}


@dataclass
class OutlierQuantizedTensor:
    """A tensor split into a low-precision body and INT16 outliers."""

    body: QuantizedTensor
    outlier_values: QuantizedTensor
    outlier_indices: np.ndarray
    shape: tuple[int, ...]

    @property
    def outlier_fraction(self) -> float:
        """Fraction of elements stored at INT16."""
        total = int(np.prod(self.shape))
        return self.outlier_indices.shape[0] / total if total else 0.0

    def dequantize(self) -> np.ndarray:
        """Reconstruct the floating-point tensor."""
        out = self.body.dequantize().reshape(-1)
        if self.outlier_indices.size:
            out[self.outlier_indices] = self.outlier_values.dequantize()
        return out.reshape(self.shape)


def outlier_quantize(
    tensor: np.ndarray,
    precision: Precision,
    sigma_threshold: float | None = None,
    omitted_zeros: int = 0,
) -> OutlierQuantizedTensor:
    """Quantize ``tensor`` to ``precision`` keeping outliers at INT16.

    Elements whose magnitude exceeds ``sigma_threshold`` standard deviations
    are stored separately at INT16; the remaining body is quantized with a
    scale fitted to the non-outlier range, which is what recovers accuracy.

    ``omitted_zeros`` counts zeros of a larger matrix that ``tensor`` leaves
    out (the empty rows of a sparse feature matrix).  They enter the mean
    and standard deviation, and so the threshold, but a zero is never an
    outlier and never sets a scale, so they are not quantized.  With the
    default 0 the statistics equal ``np.mean`` and ``np.std`` of ``tensor``.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    omitted_zeros = require_count("omitted_zeros", omitted_zeros, 0)
    if sigma_threshold is None:
        sigma_threshold = DEFAULT_SIGMA_THRESHOLD[precision]
    flat = tensor.reshape(-1)
    if flat.size == 0:
        body = quantize(flat, precision)
        outliers = quantize(flat, Precision.INT16)
        return OutlierQuantizedTensor(
            body=body,
            outlier_values=outliers,
            outlier_indices=np.empty(0, dtype=np.int64),
            shape=tensor.shape,
        )
    # numpy's mean and std, written out so the omitted zeros can join them:
    # each adds 0 to the sum and mean**2 to the squared deviations.
    count = flat.size + omitted_zeros
    mean = float(np.sum(flat)) / count
    deviations = float(np.sum((flat - mean) ** 2)) + omitted_zeros * mean * mean
    std = float(np.sqrt(deviations / count))
    threshold = abs(mean) + sigma_threshold * std if std > 0 else np.inf
    outlier_mask = np.abs(flat) > threshold
    outlier_indices = np.nonzero(outlier_mask)[0]
    body_values = np.where(outlier_mask, 0.0, flat)
    body = quantize(body_values, precision)
    outliers = quantize(flat[outlier_indices], Precision.INT16)
    return OutlierQuantizedTensor(
        body=body,
        outlier_values=outliers,
        outlier_indices=outlier_indices,
        shape=tensor.shape,
    )
