"""Image-quality metrics used by the quantization sensitivity study."""

from __future__ import annotations

import numpy as np

from repro.validate import require_positive


def mse(reference: np.ndarray, test: np.ndarray) -> float:
    """Mean squared error between two images / tensors of the same shape."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs test {test.shape}"
        )
    if reference.size == 0:
        return 0.0
    return float(np.mean((reference - test) ** 2))


def psnr(reference: np.ndarray, test: np.ndarray, data_range: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    require_positive("data_range", data_range)
    error = mse(reference, test)
    if error == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range**2 / error))
