"""Functional NeRF renderers.

Two renderers exercise the full pipeline of paper Fig. 2:

* :class:`VanillaNeRFRenderer` -- positional encoding + an 8x256 MLP with
  density and colour heads, matching the original NeRF architecture;
* :class:`InstantNGPRenderer` -- multi-resolution hash encoding + a tiny MLP,
  matching Instant-NGP.  Its hash tables can be *fitted* directly to a
  procedural scene (no training loop needed), which gives a deterministic
  FP32 reference image for the quantization study of paper Fig. 20(a).

Both renderers can record the sparsity of the matrices entering the MLP at
each stage, which backs the Fig. 13(a) experiment.
"""

from __future__ import annotations

import base64
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.device import canonical_digest
from repro.nerf.hashgrid import HashGrid, HashGridConfig
from repro.nerf.mlp import MLP
from repro.nerf.positional import positional_encoding
from repro.nerf.rays import Camera, generate_rays, sample_along_rays
from repro.nerf.scenes import SyntheticScene
from repro.nerf.volume import composite_rays
from repro.quant.outlier import outlier_quantize
from repro.quant.quantize import quantize
from repro.sparse.formats import Precision
from repro.sparse.tensor import sparsity_ratio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.store import GridAssetKey, ResultStore


def render_reference(
    scene: SyntheticScene,
    camera: Camera,
    num_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Oracle render of a synthetic scene (queries the scene fields directly)."""
    rng = rng or np.random.default_rng(0)
    origins, directions = generate_rays(camera)
    points, t_values = sample_along_rays(
        origins, directions, num_samples, stratified=False, rng=rng
    )
    densities, colors, _ = scene.fields(points)
    image = composite_rays(colors, densities, t_values)
    return image.reshape(camera.height, camera.width, 3)


def _encode_table(table: np.ndarray) -> str:
    """Base64 of a table's raw little-endian float64 bytes (an asset payload entry)."""
    return base64.b64encode(np.ascontiguousarray(table, dtype="<f8").tobytes()).decode("ascii")


@dataclass(frozen=True)
class RenderPlan:
    """The precision-independent half of an Instant-NGP render.

    Produced by :meth:`InstantNGPRenderer.prepare_render`: rays, depth
    samples, the occupancy mask and the FP32 feature matrix.  A plan is
    immutable and reusable -- :meth:`InstantNGPRenderer.render_prepared`
    consumes it once per quantization setting without re-running ray
    generation, occupancy or the hash-grid encode.
    """

    camera: Camera
    t_values: np.ndarray
    num_rays: int
    samples: int
    occupied: np.ndarray
    features: np.ndarray


@dataclass
class RenderStats:
    """Per-stage statistics recorded during a render."""

    stage_sparsity: dict[str, float] = field(default_factory=dict)
    num_rays: int = 0
    num_samples: int = 0
    skipped_samples: int = 0


class VanillaNeRFRenderer:
    """Positional encoding + 8x256 MLP renderer (vanilla NeRF)."""

    def __init__(
        self,
        num_frequencies_xyz: int = 10,
        num_frequencies_dir: int = 4,
        hidden_width: int = 256,
        num_hidden_layers: int = 8,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.num_frequencies_xyz = num_frequencies_xyz
        self.num_frequencies_dir = num_frequencies_dir
        xyz_dim = 3 * 2 * num_frequencies_xyz
        dir_dim = 3 * 2 * num_frequencies_dir
        trunk_widths = [xyz_dim] + [hidden_width] * num_hidden_layers
        self.trunk = MLP.build(trunk_widths, final_activation="relu", rng=rng)
        self.density_head = MLP.build([hidden_width, 1], final_activation="none", rng=rng)
        self.color_head = MLP.build(
            [hidden_width + dir_dim, hidden_width // 2, 3],
            final_activation="sigmoid",
            rng=rng,
        )
        self.stats = RenderStats()

    def query(self, points: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (densities, colors) for flattened points and per-point dirs."""
        encoded_xyz = positional_encoding(points, self.num_frequencies_xyz)
        encoded_dir = positional_encoding(directions, self.num_frequencies_dir)
        hidden = self.trunk.forward(encoded_xyz)
        densities = self.density_head.forward(hidden)[..., 0]
        colors = self.color_head.forward(
            np.concatenate([hidden, encoded_dir], axis=-1)
        )
        return densities, colors

    def render(
        self,
        camera: Camera,
        num_samples: int = 32,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Render an image with the current (untrained) network weights."""
        rng = rng or np.random.default_rng(0)
        origins, directions = generate_rays(camera)
        points, t_values = sample_along_rays(
            origins, directions, num_samples, stratified=False, rng=rng
        )
        num_rays, samples = points.shape[:2]
        flat_points = points.reshape(-1, 3)
        flat_dirs = np.repeat(directions, samples, axis=0)
        densities, colors = self.query(flat_points, flat_dirs)
        self.stats = RenderStats(num_rays=num_rays, num_samples=flat_points.shape[0])
        image = composite_rays(
            colors.reshape(num_rays, samples, 3),
            densities.reshape(num_rays, samples),
            t_values,
        )
        return image.reshape(camera.height, camera.width, 3)


class InstantNGPRenderer:
    """Hash-grid renderer whose tables are fitted directly to a scene.

    The grid stores 4 features per level: a density proxy and the RGB albedo
    sampled at the grid vertex.  Decoding sums the density proxies over levels
    and averages the colour channels, so no training is needed to produce a
    deterministic, scene-faithful FP32 reference image.  A small MLP is still
    instantiated (and used for the stage-sparsity measurements) because the
    hardware workload includes it.
    """

    def __init__(
        self,
        config: HashGridConfig | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        rng = rng or np.random.default_rng(0)
        self.config = config or HashGridConfig(
            num_levels=8, features_per_level=4, log2_table_size=15,
            base_resolution=16, max_resolution=128,
        )
        self.grid = HashGrid(self.config, rng=rng)
        self.mlp = MLP.build(
            [self.config.output_dim, 64, 64, 16], final_activation="relu", rng=rng
        )
        # Bias the first layer positively so its ReLU output is nearly dense,
        # matching the near-zero sparsity reported for 'Output ReLU1' in
        # Fig. 13(a).
        self.mlp.layers[0].bias += 1.5
        self.scene: SyntheticScene | None = None
        self.stats = RenderStats()

    # -- fitting -------------------------------------------------------------

    def asset_key(self, scene: SyntheticScene) -> "GridAssetKey":
        """Asset-tier store key of this grid config fitted to ``scene``."""
        from repro.perf.store import GridAssetKey

        return GridAssetKey(
            scene_fingerprint=scene.fingerprint(),
            grid_fingerprint=canonical_digest(dataclasses.asdict(self.config)),
        )

    def fit_to_scene(
        self, scene: SyntheticScene, store: "ResultStore | None" = None
    ) -> None:
        """Populate the hash tables from the scene's density / colour fields.

        Fields come from one separable lattice query per level
        (:meth:`SyntheticScene.lattice_fields`).  With a ``store``, fitted
        tables are read from / written to the store's asset tier (keyed on
        scene fingerprint + grid config) as base64 of their raw
        little-endian float64 bytes: a warm fit is a decode, not a field
        sweep, and reloads the exact IEEE-754 doubles the cold fit produced.
        """
        self.scene = scene
        if store is not None:
            key = self.asset_key(scene)
            tables = self._decode_tables(store.get(key))
            if tables is not None:
                self.grid.tables = tables
                return
        low, high = scene.bounds
        for level in range(self.config.num_levels):
            resolution = self.config.resolution(level)
            table_size = self.grid.tables[level].shape[0]
            axis = np.linspace(0.0, 1.0, resolution + 1)
            raw_density, color = scene.lattice_fields(low + axis * (high - low))
            features = np.concatenate([(raw_density / 30.0)[:, None], color], axis=-1)
            # Truncating ``axis * resolution`` can land a vertex on its
            # neighbour's id; kept as is because goldens depend on it.
            ids = np.clip(axis * resolution, 0, resolution).astype(np.int64)
            corner_ids = np.stack(np.meshgrid(ids, ids, ids, indexing="ij"), axis=-1)
            indices = self.grid._indices(corner_ids.reshape(-1, 3), level)
            # bincount sums in input order, which the golden tables depend on.
            table = np.stack(
                [
                    np.bincount(indices, weights=column, minlength=table_size)
                    for column in features.T
                ],
                axis=-1,
            )
            counts = np.maximum(np.bincount(indices, minlength=table_size), 1)
            self.grid.tables[level] = table / counts[:, None]
        if store is not None:
            store.put(key, {"tables": [_encode_table(table) for table in self.grid.tables]})

    def _decode_tables(self, payload: dict | None) -> list[np.ndarray] | None:
        """The tables of a stored asset payload, or None if it does not fit this grid.

        A wrong level count, a non-string or non-base64 entry, or a byte
        length other than the level's table shape is a miss, so the caller
        refits and overwrites the entry.
        """
        entries = payload.get("tables") if payload else None
        if not isinstance(entries, list) or len(entries) != self.config.num_levels:
            return None
        tables = []
        for level, entry in enumerate(entries):
            shape = (self.grid._level_table_size(level), self.config.features_per_level)
            try:
                raw = base64.b64decode(entry, validate=True)
            except (TypeError, ValueError):
                return None
            if len(raw) != shape[0] * shape[1] * 8:
                return None
            tables.append(np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64))
        return tables

    # -- decoding ------------------------------------------------------------

    def _decode(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode per-point features into (density, color)."""
        per_level = features.reshape(features.shape[0], self.config.num_levels, -1)
        density = 30.0 * np.mean(per_level[:, :, 0], axis=-1)
        color = np.clip(np.mean(per_level[:, :, 1:4], axis=1), 0.0, 1.0)
        return density, color

    def _world_to_unit(self, points: np.ndarray) -> np.ndarray:
        low, high = (self.scene.bounds if self.scene else (-1.0, 1.0))
        return (points - low) / (high - low)

    def prepare_render(
        self,
        camera: Camera,
        num_samples: int = 48,
        rng: np.random.Generator | None = None,
    ) -> "RenderPlan":
        """Run the precision-independent half of :meth:`render` once.

        Ray generation, depth sampling, occupancy (empty-space skipping)
        and the FP32 hash-grid encode do not depend on the quantization
        knobs, so a study that renders the same view under several
        precisions (Fig. 20(a)) can prepare once and call
        :meth:`render_prepared` per setting.
        """
        if self.scene is None:
            raise RuntimeError("call fit_to_scene() before render()")
        rng = rng or np.random.default_rng(0)
        origins, directions = generate_rays(camera)
        # Sample only the depth range covered by the scene bounds so the
        # measured occupancy along rays matches the scene statistics.
        points, t_values = sample_along_rays(
            origins, directions, num_samples, stratified=False, rng=rng,
            near=3.0, far=5.0,
        )
        num_rays, samples = points.shape[:2]
        flat_points = points.reshape(-1, 3)

        # Empty-space skipping via the scene's occupancy: skipped samples
        # contribute all-zero feature rows (this drives the input sparsity
        # measured in Fig. 13(a)).
        occupied = self.scene.occupancy(flat_points)
        unit_points = np.clip(self._world_to_unit(flat_points), 0.0, 1.0)
        features = np.zeros((flat_points.shape[0], self.config.output_dim))
        if np.any(occupied):
            features[occupied] = self.grid.encode(unit_points[occupied])
        return RenderPlan(
            camera=camera,
            t_values=t_values,
            num_rays=num_rays,
            samples=samples,
            occupied=occupied,
            features=features,
        )

    def render_prepared(
        self,
        plan: "RenderPlan",
        precision: Precision | None = None,
        outlier_aware: bool = False,
        record_stats: bool = True,
    ) -> np.ndarray:
        """Finish a prepared render under the given quantization setting.

        The plan's FP32 feature matrix is never mutated (quantization
        produces a fresh array), so one plan serves any number of
        precision settings with bit-identical results to full renders.
        """
        occupied = plan.occupied
        features = plan.features
        if precision is not None:
            features = self._quantize_features(features, precision, outlier_aware)

        density, color = self._decode(features)
        density = np.where(occupied, density, 0.0)

        if record_stats:
            any_occupied = bool(np.any(occupied))
            hidden1 = self.mlp.layers[0].forward(features[occupied]) if any_occupied else np.zeros((0, 64))
            # Resume the stack from layer 1: layer 0's activation is
            # already in hand.
            hidden_out = self.mlp.forward(hidden1, start=1) if any_occupied else np.zeros((0, 16))
            self.stats = RenderStats(
                num_rays=plan.num_rays,
                num_samples=features.shape[0],
                skipped_samples=int(np.sum(~occupied)),
                stage_sparsity={
                    "input_ray_marching": sparsity_ratio(features),
                    "output_relu1": sparsity_ratio(hidden1),
                    "output": sparsity_ratio(hidden_out),
                },
            )

        image = composite_rays(
            color.reshape(plan.num_rays, plan.samples, 3),
            density.reshape(plan.num_rays, plan.samples),
            plan.t_values,
        )
        return image.reshape(plan.camera.height, plan.camera.width, 3)

    def render(
        self,
        camera: Camera,
        num_samples: int = 48,
        precision: Precision | None = None,
        outlier_aware: bool = False,
        record_stats: bool = True,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Render the fitted scene, optionally with quantized tables.

        ``precision=None`` renders in FP32.  With a precision, the hash-table
        features are quantized (plainly, or outlier-aware when
        ``outlier_aware=True``) before decoding, which is the quantization
        point the Fig. 20(a) study sweeps.  ``render`` is exactly
        :meth:`prepare_render` followed by :meth:`render_prepared`.
        """
        plan = self.prepare_render(camera, num_samples=num_samples, rng=rng)
        return self.render_prepared(
            plan,
            precision=precision,
            outlier_aware=outlier_aware,
            record_stats=record_stats,
        )

    @staticmethod
    def _quantize_features(
        features: np.ndarray, precision: Precision, outlier_aware: bool
    ) -> np.ndarray:
        if outlier_aware:
            return outlier_quantize(features, precision).dequantize()
        return quantize(features, precision).dequantize()
