"""Ray generation and point sampling (paper Fig. 2, Step A).

Implements a simple pinhole camera model, per-pixel ray generation, and
stratified sampling of points along rays with the 5D representation used by
NeRF (x, y, z plus the azimuthal and polar viewing angles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.validate import require_count, require_positive


@dataclass(frozen=True)
class Camera:
    """A pinhole camera looking along -z of its own frame."""

    width: int
    height: int
    focal: float
    origin: tuple[float, float, float] = (0.0, 0.0, 4.0)

    def __post_init__(self) -> None:
        require_count("width", self.width, 1)
        require_count("height", self.height, 1)
        require_positive("focal", self.focal)


def generate_rays(camera: Camera) -> tuple[np.ndarray, np.ndarray]:
    """Generate one ray per pixel.

    Returns ``(origins, directions)`` with shape ``(H*W, 3)`` each; the
    directions are normalised.
    """
    ys, xs = np.meshgrid(
        np.arange(camera.height, dtype=np.float64),
        np.arange(camera.width, dtype=np.float64),
        indexing="ij",
    )
    dirs = np.stack(
        [
            (xs - camera.width * 0.5) / camera.focal,
            -(ys - camera.height * 0.5) / camera.focal,
            -np.ones_like(xs),
        ],
        axis=-1,
    ).reshape(-1, 3)
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    origins = np.broadcast_to(
        np.asarray(camera.origin, dtype=np.float64), dirs.shape
    ).copy()
    return origins, dirs


def sample_along_rays(
    origins: np.ndarray,
    directions: np.ndarray,
    num_samples: int,
    near: float = 2.0,
    far: float = 6.0,
    stratified: bool = True,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``num_samples`` points along each ray between ``near`` and ``far``.

    Returns ``(points, t_values)`` with shapes ``(R, S, 3)`` and ``(R, S)``.
    With ``stratified=True`` each sample is jittered within its bin, which is
    the scheme the vanilla NeRF uses during both training and rendering.
    """
    require_count("num_samples", num_samples, 1)
    if far <= near:
        raise ValueError("far plane must lie beyond the near plane")
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    if origins.shape != directions.shape or origins.ndim != 2 or origins.shape[1] != 3:
        raise ValueError("origins and directions must both have shape (R, 3)")
    num_rays = origins.shape[0]
    edges = np.linspace(near, far, num_samples + 1)
    lower, upper = edges[:-1], edges[1:]
    if stratified:
        rng = rng or np.random.default_rng()
        jitter = rng.random((num_rays, num_samples))
    else:
        jitter = np.full((num_rays, num_samples), 0.5)
    t_values = lower[None, :] + (upper - lower)[None, :] * jitter
    points = origins[:, None, :] + t_values[..., None] * directions[:, None, :]
    return points, t_values

