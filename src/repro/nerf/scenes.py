"""Procedural synthetic scenes standing in for Synthetic-NeRF / NSVF scenes.

The paper evaluates on scenes from the Synthetic-NeRF dataset (e.g. Lego, Mic)
and the NSVF dataset (e.g. Palace).  The datasets themselves are not needed
for the hardware evaluation -- only their *statistics* are: how much of the
sampled space is occupied (which drives input sparsity after ray-marching /
empty-space skipping, Fig. 13(a)) and how geometrically complex the scene is
(which drives the number of effective samples per ray, Fig. 20(b)).

Each :class:`SyntheticScene` is a procedural density + color field made of
soft-edged spheres whose count and extent are tuned to match the occupancy
statistics the paper reports for the corresponding scene.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.device import canonical_digest
from repro.validate import require_count

#: Upper bound on ``chunk_rows * num_primitives`` for the chunked distance
#: kernel: caps the per-chunk (rows, P) GEMM output at ~16 MB of float64 so
#: large query batches never materialize a full (N, P) distance matrix at
#: once (and never the (N, P, 3) broadcast cube the reference path builds).
#: The lattice scan caps its (rows, len(axis), P) blocks by the same budget.
_CHUNK_BUDGET = 1 << 21

#: Cells along the longest side of the coarse occupancy grid that
#: :meth:`SyntheticScene.density` uses to skip points no sphere can reach.
_GRID_CELLS = 64


@dataclass
class SyntheticScene:
    """A procedural radiance field with controllable occupancy / complexity."""

    name: str
    complexity: float           # relative geometric complexity (1.0 = Lego-like)
    target_occupancy: float     # fraction of sampled points inside geometry
    num_primitives: int
    seed: int = 0
    bounds: tuple[float, float] = (-1.0, 1.0)
    _centers: np.ndarray = field(init=False, repr=False)
    _radii: np.ndarray = field(init=False, repr=False)
    _colors: np.ndarray = field(init=False, repr=False)
    _center_sq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.target_occupancy < 1.0:
            raise ValueError("target occupancy must be in (0, 1)")
        require_count("num_primitives", self.num_primitives, 1)
        rng = np.random.default_rng(self.seed)
        low, high = self.bounds
        extent = high - low
        self._centers = rng.uniform(low * 0.6, high * 0.6, size=(self.num_primitives, 3))
        # Choose radii so the union of spheres covers roughly the target
        # occupancy of the bounding volume (ignoring overlaps).
        volume = extent**3
        per_sphere = volume * self.target_occupancy / self.num_primitives
        radius = (3.0 * per_sphere / (4.0 * np.pi)) ** (1.0 / 3.0)
        self._radii = rng.uniform(0.8, 1.2, size=self.num_primitives) * radius
        self._colors = rng.uniform(0.2, 1.0, size=(self.num_primitives, 3))
        # ‖c‖² per center, hoisted out of every distance scan.
        self._center_sq = np.einsum("ij,ij->i", self._centers, self._centers)

    # -- field queries -------------------------------------------------------
    #
    # The batched kernels compute point-to-center distances via the squared
    # distance identity  ‖p - c‖² = ‖p‖² + ‖c‖² - 2·p·cᵀ  as one chunked
    # GEMM: a (rows, P) output block replaces the (N, P, 3) float64
    # broadcast cube the reference implementations materialize.  Distances
    # differ from the reference by float reassociation only (last-ulp,
    # bounded well below 1e-9 over the scene volume; pinned by
    # tests/nerf/test_scene_field_parity.py).

    def _scan_fields(
        self,
        flat: np.ndarray,
        want_density: bool = True,
        want_nearest: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Chunked distance scan over flat (N, 3) points.

        Returns ``(density, nearest)``; either is None when not requested.
        Both come from the same per-chunk distance block, so asking for
        both costs one GEMM, not two.
        """
        n = flat.shape[0]
        density = np.empty(n) if want_density else None
        nearest = np.empty(n, dtype=np.intp) if want_nearest else None
        centers_t = self._centers.T
        center_sq = self._center_sq
        chunk = max(1, _CHUNK_BUDGET // self.num_primitives)
        for lo in range(0, n, chunk):
            block = flat[lo : lo + chunk]
            sq = block @ centers_t  # (rows, P)
            sq *= -2.0
            sq += np.einsum("ij,ij->i", block, block)[:, None]
            sq += center_sq
            # Cancellation can leave tiny negative squared distances.
            np.maximum(sq, 0.0, out=sq)
            dists = np.sqrt(sq, out=sq)
            if want_nearest:
                nearest[lo : lo + chunk] = np.argmin(dists, axis=-1)
            if want_density:
                # Soft sphere: high density inside, decaying over a thin
                # shell (same expression as reference_density).
                inside = np.clip(
                    (self._radii - dists) / (0.1 * self._radii), 0.0, 1.0
                )
                density[lo : lo + chunk] = 30.0 * np.max(inside, axis=-1)
        return density, nearest

    def fields(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused single-pass ``(density, color, occupancy)`` at ``points``.

        One chunked distance scan feeds all three fields, so callers that
        need more than one (grid fitting, rendering) pay for one GEMM
        instead of three full broadcast passes.
        """
        points = np.asarray(points, dtype=np.float64)
        lead = points.shape[:-1]
        flat = np.ascontiguousarray(points.reshape(-1, 3))
        density, nearest = self._scan_fields(flat)
        density = density.reshape(lead)
        colors = self._colors[nearest].reshape(lead + (3,))
        return density, colors, density > 0.0

    def lattice_fields(self, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(density, color)`` at the vertices of the cubic lattice ``axis``³.

        Vertex ``(i, j, k)`` sits at ``(axis[i], axis[j], axis[k])`` for an
        ascending ``axis``; the ``len(axis)**3`` results are flat in
        ``meshgrid(..., indexing="ij")`` order.  The lattice is separable,
        so squared distances are sums of per-axis ``(m, P)`` offset tables
        instead of a GEMM per vertex.  Nearest-centre colour scans every
        primitive in chunks of ``(x, y)`` rows; ties go to the lowest
        index, as ``argmin`` does.  Density is exactly zero beyond a
        sphere's radius, so each primitive is evaluated only on the index
        box around it (one vertex wider on each side, which covers any
        rounding in the box bounds).
        """
        axis = np.asarray(axis, dtype=np.float64)
        m = axis.shape[0]
        dx2, dy2, dz2 = ((axis[:, None] - self._centers[:, d]) ** 2 for d in range(3))

        nearest = np.empty((m * m, m), dtype=np.intp)
        chunk = max(1, _CHUNK_BUDGET // max(1, m * self.num_primitives))
        for lo in range(0, m * m, chunk):
            rows = np.arange(lo, min(lo + chunk, m * m))
            dxy = dx2[rows // m] + dy2[rows % m]  # (rows, P)
            nearest[lo : lo + chunk] = np.argmin(dxy[:, None, :] + dz2, axis=-1)

        starts = np.maximum(np.searchsorted(axis, self._centers - self._radii[:, None]) - 1, 0)
        stops = np.searchsorted(axis, self._centers + self._radii[:, None], side="right") + 1
        inside = np.zeros((m, m, m))
        for p, radius in enumerate(self._radii):
            (x0, y0, z0), (x1, y1, z1) = starts[p], stops[p]
            dists = np.sqrt((dx2[x0:x1, p, None, None] + dy2[y0:y1, p, None]) + dz2[z0:z1, p])
            box = inside[x0:x1, y0:y1, z0:z1]
            np.maximum(box, np.clip((radius - dists) / (0.1 * radius), 0.0, 1.0), out=box)
        return 30.0 * inside.reshape(-1), self._colors[nearest.reshape(-1)]

    def _candidate_rows(self, flat: np.ndarray) -> np.ndarray:
        """Indices of the rows of ``flat`` that may lie inside a sphere.

        A coarse grid spans the spheres' bounding boxes with two empty
        cells of margin, and each sphere marks the cells its box covers,
        padded by one cell on each side.  The padding covers any rounding
        in the cell lookup and in the scan's distances, so a row left out
        is more than a cell from every sphere and its density is exactly 0.
        Points outside the grid clamp onto its unmarked edge.  A batch
        with a non-finite coordinate is scanned whole.
        """
        if not np.isfinite(flat).all():
            return np.arange(flat.shape[0])
        low_corners = self._centers - self._radii[:, None]
        high_corners = self._centers + self._radii[:, None]
        cell = float(np.max(high_corners.max(axis=0) - low_corners.min(axis=0))) / _GRID_CELLS
        origin = low_corners.min(axis=0) - 2 * cell
        # Every coordinate below is positive, so truncation is floor.  No
        # sphere marks cell 0 or the last cell, where outside points clamp.
        starts = np.maximum(((low_corners - origin) / cell).astype(np.intp) - 1, 1)
        stops = ((high_corners - origin) / cell).astype(np.intp) + 2
        grid = np.zeros(tuple(stops.max(axis=0) + 2), dtype=bool)
        for (x0, y0, z0), (x1, y1, z1) in zip(starts, stops):
            grid[x0:x1, y0:y1, z0:z1] = True
        cells = flat - origin
        cells /= cell
        np.clip(cells, 0, np.array(grid.shape) - 1, out=cells)
        ids = np.ravel_multi_index(cells.astype(np.intp).T, grid.shape)
        return np.flatnonzero(grid.reshape(-1)[ids])

    def density(self, points: np.ndarray) -> np.ndarray:
        """Volume density at ``points`` of shape (..., 3).

        Only the rows a sphere may reach (:meth:`_candidate_rows`) go
        through the distance scan; every other row is exactly 0.
        """
        points = np.asarray(points, dtype=np.float64)
        lead = points.shape[:-1]
        flat = np.ascontiguousarray(points.reshape(-1, 3))
        density = np.zeros(flat.shape[0])
        rows = self._candidate_rows(flat)
        density[rows], _ = self._scan_fields(flat[rows], want_nearest=False)
        return density.reshape(lead)

    def color(self, points: np.ndarray) -> np.ndarray:
        """Albedo color at ``points`` of shape (..., 3)."""
        points = np.asarray(points, dtype=np.float64)
        lead = points.shape[:-1]
        flat = np.ascontiguousarray(points.reshape(-1, 3))
        _, nearest = self._scan_fields(flat, want_density=False)
        return self._colors[nearest].reshape(lead + (3,))

    def occupancy(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points that fall inside geometry."""
        return self.density(points) > 0.0

    # -- reference (seed) field implementations ------------------------------

    def reference_density(self, points: np.ndarray) -> np.ndarray:
        """Seed broadcast implementation of :meth:`density` (parity oracle)."""
        points = np.asarray(points, dtype=np.float64)
        dists = np.linalg.norm(
            points[..., None, :] - self._centers, axis=-1
        )  # (..., P)
        inside = np.clip((self._radii - dists) / (0.1 * self._radii), 0.0, 1.0)
        return 30.0 * np.max(inside, axis=-1)

    def reference_color(self, points: np.ndarray) -> np.ndarray:
        """Seed broadcast implementation of :meth:`color` (parity oracle)."""
        points = np.asarray(points, dtype=np.float64)
        dists = np.linalg.norm(points[..., None, :] - self._centers, axis=-1)
        nearest = np.argmin(dists, axis=-1)
        return self._colors[nearest]

    def reference_occupancy(self, points: np.ndarray) -> np.ndarray:
        """Seed implementation of :meth:`occupancy` (parity oracle)."""
        return self.reference_density(points) > 0.0

    def fingerprint(self) -> str:
        """Content hash of everything the scene's fields depend on.

        Keys the fitted-grid asset tier of the result store: two scenes
        with equal fingerprints produce bit-identical field queries, so a
        hash grid fitted to one serves the other.
        """
        return canonical_digest(
            {
                "name": self.name,
                "complexity": self.complexity,
                "target_occupancy": self.target_occupancy,
                "num_primitives": self.num_primitives,
                "seed": self.seed,
                "bounds": self.bounds,
            }
        )

    def measured_occupancy(
        self, num_samples: int = 20000, rng: np.random.Generator | None = None
    ) -> float:
        """Monte-Carlo estimate of the occupied fraction of the volume."""
        rng = rng or np.random.default_rng(self.seed + 1)
        low, high = self.bounds
        points = rng.uniform(low, high, size=(num_samples, 3))
        return float(np.mean(self.occupancy(points)))

    # -- statistics used by the workload models -------------------------------

    @property
    def ray_marching_sparsity(self) -> float:
        """Expected input sparsity after empty-space skipping.

        Samples landing in empty space contribute all-zero feature rows, so
        the input matrix sparsity equals one minus the occupancy along rays.
        """
        return 1.0 - self.target_occupancy


#: Scene statistics approximating the scenes named in the paper.  The
#: occupancies are chosen so the ray-marching input sparsity matches
#: Fig. 13(a): ~69 % for Lego and ~88 % for Mic; Palace (NSVF) is the complex
#: scene of Fig. 20(b).
SCENE_LIBRARY: dict[str, SyntheticScene] = {}


def _register(scene: SyntheticScene) -> SyntheticScene:
    SCENE_LIBRARY[scene.name] = scene
    return scene


_register(SyntheticScene(name="lego", complexity=1.0, target_occupancy=0.307, num_primitives=48, seed=1))
_register(SyntheticScene(name="mic", complexity=0.6, target_occupancy=0.12, num_primitives=12, seed=2))
_register(SyntheticScene(name="chair", complexity=0.8, target_occupancy=0.22, num_primitives=24, seed=3))
_register(SyntheticScene(name="drums", complexity=0.9, target_occupancy=0.27, num_primitives=36, seed=4))
_register(SyntheticScene(name="palace", complexity=1.5, target_occupancy=0.45, num_primitives=96, seed=5))


def get_scene(name: str) -> SyntheticScene:
    """Look up a scene by name (case-insensitive)."""
    try:
        return SCENE_LIBRARY[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown scene '{name}'; available: {sorted(SCENE_LIBRARY)}"
        ) from exc
