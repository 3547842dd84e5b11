"""Volume rendering (paper Eq. 2-3, Step D of the pipeline).

Given per-sample densities and colors along each ray, compute the accumulated
transmittance weights and composite them into final pixel colors using the
numerical quadrature of Eq. (3).
"""

from __future__ import annotations

import numpy as np


def transmittance_weights(
    densities: np.ndarray, deltas: np.ndarray
) -> np.ndarray:
    """Per-sample compositing weights ``T_i * (1 - exp(-sigma_i * delta_i))``.

    ``densities`` and ``deltas`` have shape ``(R, S)``; densities are clamped
    to be non-negative as in the reference implementation.
    """
    densities = np.maximum(np.asarray(densities, dtype=np.float64), 0.0)
    deltas = np.asarray(deltas, dtype=np.float64)
    if densities.shape != deltas.shape:
        raise ValueError(
            f"densities {densities.shape} and deltas {deltas.shape} must match"
        )
    alpha = 1.0 - np.exp(-densities * deltas)
    # T_i = exp(-sum_{j<i} sigma_j * delta_j): exclusive cumulative product.
    optical_depth = np.cumsum(densities * deltas, axis=-1)
    shifted = np.concatenate(
        [np.zeros_like(optical_depth[..., :1]), optical_depth[..., :-1]], axis=-1
    )
    transmittance = np.exp(-shifted)
    return transmittance * alpha


def composite_rays(
    colors: np.ndarray,
    densities: np.ndarray,
    t_values: np.ndarray,
    white_background: bool = True,
) -> np.ndarray:
    """Composite per-sample colors into per-ray RGB values (Eq. 3).

    ``colors`` has shape ``(R, S, 3)``, ``densities`` and ``t_values`` have
    shape ``(R, S)``.  The last sample's interval is treated as unbounded
    (a large delta), following the reference implementation.
    """
    colors = np.asarray(colors, dtype=np.float64)
    t_values = np.asarray(t_values, dtype=np.float64)
    deltas = np.diff(t_values, axis=-1)
    deltas = np.concatenate([deltas, np.full_like(deltas[..., :1], 1e10)], axis=-1)
    weights = transmittance_weights(densities, deltas)
    rgb = np.sum(weights[..., None] * colors, axis=-2)
    if white_background:
        accumulated = np.sum(weights, axis=-1, keepdims=True)
        rgb = rgb + (1.0 - accumulated)
    return np.clip(rgb, 0.0, 1.0)

