"""Multi-resolution hash encoding (Instant-NGP style, paper Section 5.2.2).

Spatial coordinates are encoded by looking up learned feature vectors at the
corners of the voxel that contains the point, at several grid resolutions, and
trilinearly interpolating.  Low-resolution levels index a dense grid; levels
whose grid exceeds the hash-table size use the spatial hash of Instant-NGP.

The same functional model backs FlexNeRFer's hash encoding engine (HEE): the
coalescing-unit statistics (how many lookups share a hash index at coarse
levels) and the subgrid statistics (how many distinct table lines a batch
touches at fine levels) are derived from this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.validate import require_count

#: Large primes used by the Instant-NGP spatial hash.
_HASH_PRIMES = np.array([1, 2654435761, 805459861], dtype=np.uint64)


@dataclass(frozen=True)
class HashGridConfig:
    """Configuration of the multi-resolution hash grid."""

    num_levels: int = 16
    features_per_level: int = 2
    log2_table_size: int = 19
    base_resolution: int = 16
    max_resolution: int = 512

    def __post_init__(self) -> None:
        require_count("num_levels", self.num_levels, 1)
        require_count("features_per_level", self.features_per_level, 1)
        require_count("log2_table_size", self.log2_table_size, 0)
        require_count("base_resolution", self.base_resolution, 1)
        require_count("max_resolution", self.max_resolution, 1)
        if self.max_resolution < self.base_resolution:
            raise ValueError("max resolution must be >= base resolution")

    @property
    def table_size(self) -> int:
        return 1 << self.log2_table_size

    @property
    def growth_factor(self) -> float:
        if self.num_levels == 1:
            return 1.0
        return float(
            np.exp(
                (np.log(self.max_resolution) - np.log(self.base_resolution))
                / (self.num_levels - 1)
            )
        )

    def resolution(self, level: int) -> int:
        """Grid resolution of ``level`` (0-based)."""
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} outside [0, {self.num_levels})")
        return int(np.floor(self.base_resolution * self.growth_factor**level))

    @property
    def output_dim(self) -> int:
        return self.num_levels * self.features_per_level


@dataclass
class LevelStats:
    """Access statistics of one level for a batch of lookups."""

    level: int
    resolution: int
    uses_hash: bool
    num_lookups: int
    unique_indices: int

    @property
    def coalescing_factor(self) -> float:
        """Average number of lookups served per distinct table entry."""
        return self.num_lookups / self.unique_indices if self.unique_indices else 0.0


class HashGrid:
    """Functional multi-resolution hash grid with trilinear interpolation."""

    def __init__(
        self, config: HashGridConfig | None = None, rng: np.random.Generator | None = None
    ) -> None:
        self.config = config or HashGridConfig()
        rng = rng or np.random.default_rng(0)
        self.tables = [
            rng.normal(0.0, 1e-2, size=(self._level_table_size(level), self.config.features_per_level))
            for level in range(self.config.num_levels)
        ]
        self.last_level_stats: list[LevelStats] = []

    # -- table management --------------------------------------------------

    def _level_table_size(self, level: int) -> int:
        resolution = self.config.resolution(level)
        dense_size = (resolution + 1) ** 3
        return min(dense_size, self.config.table_size)

    def _level_uses_hash(self, level: int) -> bool:
        resolution = self.config.resolution(level)
        return (resolution + 1) ** 3 > self.config.table_size

    def _indices(self, corners: np.ndarray, level: int) -> np.ndarray:
        """Map integer corner coordinates to table indices at ``level``."""
        resolution = self.config.resolution(level)
        corners = corners.astype(np.uint64)
        if self._level_uses_hash(level):
            hashed = corners[..., 0] * _HASH_PRIMES[0]
            hashed ^= corners[..., 1] * _HASH_PRIMES[1]
            hashed ^= corners[..., 2] * _HASH_PRIMES[2]
            return (hashed % np.uint64(self._level_table_size(level))).astype(np.int64)
        stride = np.uint64(resolution + 1)
        flat = corners[..., 0] + stride * (corners[..., 1] + stride * corners[..., 2])
        return flat.astype(np.int64)

    # -- encoding ------------------------------------------------------------

    def encode(self, points: np.ndarray) -> np.ndarray:
        """Encode points in [0, 1]^3 into per-level interpolated features.

        Returns an array of shape ``(N, num_levels * features_per_level)`` and
        records per-level access statistics in :attr:`last_level_stats`.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"expected points of shape (N, 3), got {points.shape}")
        points = np.clip(points, 0.0, 1.0)
        features = []
        self.last_level_stats = []
        for level in range(self.config.num_levels):
            resolution = self.config.resolution(level)
            scaled = points * resolution
            base = np.floor(scaled).astype(np.int64)
            base = np.clip(base, 0, resolution - 1)
            frac = scaled - base
            level_feat = np.zeros(
                (points.shape[0], self.config.features_per_level), dtype=np.float64
            )
            all_indices = []
            for corner in range(8):
                offset = np.array(
                    [(corner >> 0) & 1, (corner >> 1) & 1, (corner >> 2) & 1],
                    dtype=np.int64,
                )
                corner_coords = base + offset
                weights = np.prod(
                    np.where(offset == 1, frac, 1.0 - frac), axis=-1, keepdims=True
                )
                indices = self._indices(corner_coords, level)
                all_indices.append(indices)
                level_feat += weights * self.tables[level][indices]
            features.append(level_feat)
            stacked = np.concatenate(all_indices)
            self.last_level_stats.append(
                LevelStats(
                    level=level,
                    resolution=resolution,
                    uses_hash=self._level_uses_hash(level),
                    num_lookups=int(stacked.size),
                    unique_indices=int(np.unique(stacked).size),
                )
            )
        return np.concatenate(features, axis=-1)

    @property
    def output_dim(self) -> int:
        return self.config.output_dim
