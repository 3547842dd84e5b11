"""Functional Instant-NGP renderer.

:class:`InstantNGPRenderer` renders with a multi-resolution hash encoding and
a tiny MLP, matching Instant-NGP.  Its hash tables are *fitted* directly to a
procedural scene (no training loop needed), which gives a deterministic FP32
reference image for the quantization study of paper Fig. 20(a).
:meth:`InstantNGPRenderer.stage_sparsity` measures the sparsity of the
matrices entering the MLP at each stage of a prepared render, which backs
the Fig. 13(a) experiment.  The renderer holds no per-render state, so one
fitted instance (see :meth:`repro.sim.sweep.SweepEngine.probe`) serves every
study and thread.

Like FlexNeRFer's datapath, the renderer does no work on empty samples: a
:class:`RenderPlan` keeps only the occupied rows of the feature matrix, and
:meth:`InstantNGPRenderer.render_prepared` quantizes and decodes those rows
alone.  Empty samples have zero density and colour, which is what decoding
their all-zero rows would give.  At FP32 and under plain quantization the
image is therefore the dense render's bit for bit.  The outlier-aware path
sums its mean and std over the occupied values only, so its threshold can
differ from the dense one by an ulp, and the image differs only where a
feature value lies within that ulp of the threshold;
``tests/nerf/test_occupied_render.py`` finds no such value on the probe
plans it renders.
"""

from __future__ import annotations

import base64
import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.device import canonical_digest
from repro.nerf.hashgrid import HashGrid, HashGridConfig
from repro.nerf.mlp import MLP
from repro.nerf.rays import Camera, generate_rays, sample_along_rays
from repro.nerf.scenes import SyntheticScene
from repro.nerf.volume import composite_rays
from repro.quant.outlier import outlier_quantize
from repro.quant.quantize import quantize
from repro.sparse.formats import Precision
from repro.sparse.tensor import sparsity_ratio

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.store import GridAssetKey, ResultStore

#: The hash grid every probe render uses (Fig. 13(a), Fig. 20(a) and the
#: serving ladder's PSNR probe): 6 levels of 4 features, 2^13-entry tables,
#: resolutions 8 to 64.
PROBE_GRID = HashGridConfig(
    num_levels=6,
    features_per_level=4,
    log2_table_size=13,
    base_resolution=8,
    max_resolution=64,
)


def render_reference(
    scene: SyntheticScene, camera: Camera, num_samples: int = 64
) -> np.ndarray:
    """Oracle render of a synthetic scene (queries the scene fields directly).

    Colour is looked up only where the density is positive: an empty sample
    has weight exactly 0, so its colour never reaches the image.
    """
    origins, directions = generate_rays(camera)
    points, t_values = sample_along_rays(
        origins, directions, num_samples, stratified=False
    )
    densities = scene.density(points)
    occupied = densities > 0.0
    colors = np.zeros(points.shape)
    colors[occupied] = scene.color(points[occupied])
    image = composite_rays(colors, densities, t_values)
    return image.reshape(camera.height, camera.width, 3)


def _encode_table(table: np.ndarray) -> str:
    """Base64 of a table's raw little-endian float64 bytes (an asset payload entry)."""
    return base64.b64encode(np.ascontiguousarray(table, dtype="<f8").tobytes()).decode("ascii")


@dataclass(frozen=True)
class RenderPlan:
    """The precision-independent half of an Instant-NGP render.

    Produced by :meth:`InstantNGPRenderer.prepare_render`: rays, depth
    samples, the occupancy mask and the FP32 hash-grid encoding of the
    occupied samples.  A plan is immutable and reusable --
    :meth:`InstantNGPRenderer.render_prepared` consumes it once per
    quantization setting without re-running ray generation, occupancy or
    the hash-grid encode.  A plan can live as long as the process (the
    sweep engine's probe tier), so it is kept small.  The feature matrix
    is held sparse: ``occupied`` masks the ``num_rays * samples`` samples,
    and ``encoded`` holds the feature rows of the occupied ones in sample
    order.  Every other row of the matrix is zero and is never built.
    ``t_values`` is a read-only broadcast of the one depth row every ray
    shares.
    """

    camera: Camera
    t_values: np.ndarray
    num_rays: int
    samples: int
    occupied: np.ndarray
    encoded: np.ndarray


class InstantNGPRenderer:
    """Hash-grid renderer whose tables are fitted directly to a scene.

    The grid stores 4 features per level: a density proxy and the RGB albedo
    sampled at the grid vertex.  Decoding sums the density proxies over levels
    and averages the colour channels, so no training is needed to produce a
    deterministic, scene-faithful FP32 reference image.  A small MLP is still
    instantiated (and used for the stage-sparsity measurements) because the
    hardware workload includes it.
    """

    def __init__(self, config: HashGridConfig = PROBE_GRID) -> None:
        # One seeded stream initialises the grid, then the MLP weights.
        rng = np.random.default_rng(0)
        self.config = config
        self.grid = HashGrid(self.config, rng=rng)
        self.mlp = MLP.build(
            [self.config.output_dim, 64, 64, 16], final_activation="relu", rng=rng
        )
        # Bias the first layer positively so its ReLU output is nearly dense,
        # matching the near-zero sparsity reported for 'Output ReLU1' in
        # Fig. 13(a).
        self.mlp.layers[0].bias += 1.5
        self.scene: SyntheticScene | None = None

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
        per_level = features.reshape(
            features.shape[0], self.config.num_levels, self.config.features_per_level
        )
        density = 30.0 * np.mean(per_level[:, :, 0], axis=-1)
        color = np.clip(np.mean(per_level[:, :, 1:4], axis=1), 0.0, 1.0)
        return density, color

    def _world_to_unit(self, points: np.ndarray) -> np.ndarray:
        low, high = (self.scene.bounds if self.scene else (-1.0, 1.0))
        return (points - low) / (high - low)

    def prepare_render(self, camera: Camera, num_samples: int = 48) -> "RenderPlan":
        """Run the precision-independent half of :meth:`render` once.

        Ray generation, depth sampling, occupancy (empty-space skipping)
        and the FP32 hash-grid encode do not depend on the quantization
        knobs, so a study that renders the same view under several
        precisions (Fig. 20(a)) can prepare once and call
        :meth:`render_prepared` per setting.
        """
        if self.scene is None:
            raise RuntimeError("call fit_to_scene() before render()")
        origins, directions = generate_rays(camera)
        # Sample only the depth range covered by the scene bounds so the
        # measured occupancy along rays matches the scene statistics.
        points, t_values = sample_along_rays(
            origins, directions, num_samples, stratified=False, near=3.0, far=5.0
        )
        num_rays, samples = points.shape[:2]
        flat_points = points.reshape(-1, 3)

        # Empty-space skipping via the scene's occupancy: skipped samples
        # contribute all-zero feature rows (this drives the input sparsity
        # measured in Fig. 13(a)).
        occupied = self.scene.occupancy(flat_points)
        unit_points = np.clip(self._world_to_unit(flat_points[occupied]), 0.0, 1.0)
        encoded = (
            self.grid.encode(unit_points)
            if np.any(occupied)
            else np.zeros((0, self.config.output_dim))
        )
        return RenderPlan(
            camera=camera,
            # Every ray samples the same mid-bin depths: keep one row.
            t_values=np.broadcast_to(t_values[0].copy(), t_values.shape),
            num_rays=num_rays,
            samples=samples,
            occupied=occupied,
            encoded=encoded,
        )

    def render_prepared(
        self,
        plan: "RenderPlan",
        precision: Precision | None = None,
        outlier_aware: bool = False,
    ) -> np.ndarray:
        """Finish a prepared render under the given quantization setting.

        Only the occupied rows are quantized and decoded; empty samples
        keep zero density and colour.  Plain quantization takes its scale
        from the max-abs value, which the zero rows do not change, so it
        gives the zero-filled matrix's values exactly.  The outlier-aware
        path counts the zero rows into its mean and std
        (``omitted_zeros``), but sums in another order than over the
        zero-filled matrix, so its threshold can move by an ulp (see the
        module docstring).  The plan is never mutated, so one plan serves
        any number of precision settings.
        """
        features = plan.encoded
        if precision is not None:
            if outlier_aware:
                omitted = (plan.occupied.size - features.shape[0]) * features.shape[1]
                quantized = outlier_quantize(features, precision, omitted_zeros=omitted)
            else:
                quantized = quantize(features, precision)
            features = quantized.dequantize()

        occupied_density, occupied_color = self._decode(features)
        density = np.zeros(plan.occupied.shape)
        density[plan.occupied] = occupied_density
        color = np.zeros(plan.occupied.shape + (3,))
        color[plan.occupied] = occupied_color
        image = composite_rays(
            color.reshape(plan.num_rays, plan.samples, 3),
            density.reshape(plan.num_rays, plan.samples),
            plan.t_values,
        )
        return image.reshape(plan.camera.height, plan.camera.width, 3)

    def stage_sparsity(self, plan: "RenderPlan") -> dict[str, float]:
        """Sparsity of the matrices entering and leaving the MLP (Fig. 13(a)).

        ``input_ray_marching`` is the FP32 feature matrix after empty-space
        skipping, ``output_relu1`` the first layer's activations and
        ``output`` the network's output, both over the occupied samples.
        """
        hidden1 = self.mlp.layers[0].forward(plan.encoded)
        # Resume the stack from layer 1: layer 0's activation is already in
        # hand.
        hidden_out = self.mlp.forward(hidden1, start=1)
        # The feature matrix's nonzeros are all in ``encoded``; its empty
        # rows are zero.
        size = plan.occupied.size * plan.encoded.shape[1]
        return {
            "input_ray_marching": 1.0 - np.count_nonzero(plan.encoded) / size,
            "output_relu1": sparsity_ratio(hidden1),
            "output": sparsity_ratio(hidden_out),
        }

    def render(
        self,
        camera: Camera,
        num_samples: int = 48,
        precision: Precision | None = None,
        outlier_aware: bool = False,
    ) -> np.ndarray:
        """Render the fitted scene, optionally with quantized tables.

        ``precision=None`` renders in FP32.  With a precision, the hash-table
        features are quantized (plainly, or outlier-aware when
        ``outlier_aware=True``) before decoding, which is the quantization
        point the Fig. 20(a) study sweeps.  ``render`` is exactly
        :meth:`prepare_render` followed by :meth:`render_prepared`.
        """
        plan = self.prepare_render(camera, num_samples=num_samples)
        return self.render_prepared(
            plan, precision=precision, outlier_aware=outlier_aware
        )
