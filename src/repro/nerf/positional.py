"""Sinusoidal positional encoding (paper Eq. 1) and its hardware approximation.

FlexNeRFer's positional encoding engine replaces exact trigonometric units
with the piece-wise approximation of Eqs. (5)-(6), implementable with modulo
(bit-shift) arithmetic.  Both the exact and the approximated encodings are
provided so the encoding-engine tests can check that the approximation tracks
the exact values at the points the hardware evaluates.
"""

from __future__ import annotations

import numpy as np

from repro.validate import require_count


def positional_encoding(
    values: np.ndarray, num_frequencies: int, include_input: bool = False
) -> np.ndarray:
    """Exact sinusoidal encoding gamma(v) of paper Eq. (1).

    ``values`` has shape ``(..., D)``; the result has shape
    ``(..., D * 2 * num_frequencies [+ D])`` with the layout
    ``[sin(2^0 pi v), cos(2^0 pi v), ..., cos(2^(N-1) pi v)]`` per input dim.
    """
    require_count("num_frequencies", num_frequencies, 1)
    values = np.asarray(values, dtype=np.float64)
    frequencies = 2.0 ** np.arange(num_frequencies) * np.pi
    scaled = values[..., None] * frequencies  # (..., D, N)
    encoded = np.concatenate([np.sin(scaled), np.cos(scaled)], axis=-1)
    encoded = encoded.reshape(*values.shape[:-1], -1)
    if include_input:
        encoded = np.concatenate([values, encoded], axis=-1)
    return encoded


def approx_sin_halfpi(values: np.ndarray) -> np.ndarray:
    """Hardware approximation of sin(pi*v/2) (paper Eq. 5).

    sin(2^-1 pi v) ~= (-1)^floor(v/2) * mod(v, 2) * mod(2 - v, 2)
    """
    values = np.asarray(values, dtype=np.float64)
    sign = np.where(np.floor(values / 2.0) % 2 == 0, 1.0, -1.0)
    return sign * np.mod(values, 2.0) * np.mod(2.0 - values, 2.0)


def approx_cos_halfpi(values: np.ndarray) -> np.ndarray:
    """Hardware approximation of cos(pi*v/2) (paper Eq. 6).

    cos(2^-1 pi v) ~= (-1)^floor(v/2) * mod(v + 1, 2) * mod(1 - v, 2)
    """
    values = np.asarray(values, dtype=np.float64)
    sign = np.where(np.floor(values / 2.0) % 2 == 0, 1.0, -1.0)
    return sign * np.mod(values + 1.0, 2.0) * np.mod(1.0 - values, 2.0)


def approx_positional_encoding(
    values: np.ndarray, num_frequencies: int, include_input: bool = False
) -> np.ndarray:
    """Positional encoding built from the approximated trigonometric units.

    The frequency scaling 2^k pi v = (pi/2) * (2^(k+1) v), so each band feeds
    the half-pi approximation with a shifted operand -- exactly what the PEE's
    arithmetic bit-shifters produce.
    """
    require_count("num_frequencies", num_frequencies, 1)
    values = np.asarray(values, dtype=np.float64)
    shifted = values[..., None] * (2.0 ** (np.arange(num_frequencies) + 1))
    encoded = np.concatenate(
        [approx_sin_halfpi(shifted), approx_cos_halfpi(shifted)], axis=-1
    )
    encoded = encoded.reshape(*values.shape[:-1], -1)
    if include_input:
        encoded = np.concatenate([values, encoded], axis=-1)
    return encoded

