"""Common infrastructure for the per-model workload descriptors."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.nerf.scenes import SyntheticScene, get_scene
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Workload
from repro.sparse.formats import Precision
from repro.validate import require_count


@dataclass(frozen=True)
class FrameConfig:
    """Rendering configuration shared by every model (paper Section 6.1)."""

    image_width: int = 800
    image_height: int = 800
    batch_size: int = 4096
    scene_name: str = "lego"
    precision: Precision = Precision.INT16

    def __post_init__(self) -> None:
        for name in ("image_width", "image_height", "batch_size"):
            require_count(name, getattr(self, name), 1)

    @property
    def num_rays(self) -> int:
        return self.image_width * self.image_height

    @property
    def scene(self) -> SyntheticScene:
        return get_scene(self.scene_name)


#: Typical post-ReLU activation sparsity of MLP hidden layers.
RELU_SPARSITY = 0.5


class NeRFModel(abc.ABC):
    """Base class for a NeRF model's per-frame workload descriptor."""

    #: Registry / display name.
    name: str = "base"
    #: Dominant encoding mechanism ("positional" or "hash").
    encoding_kind: str = "positional"
    #: Whether the model skips samples in empty space before the network.
    uses_empty_space_skipping: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"

    @abc.abstractmethod
    def samples_per_ray(self, config: FrameConfig) -> int:
        """Number of network-evaluated samples per ray (after any skipping)."""

    @abc.abstractmethod
    def build_workload(self, config: FrameConfig | None = None) -> Workload:
        """Construct the one-frame workload for ``config``."""

    # -- shared helpers -------------------------------------------------------

    def num_samples(self, config: FrameConfig) -> int:
        """Total network-evaluated samples in a frame."""
        return config.num_rays * self.samples_per_ray(config)

    def input_sparsity(self, config: FrameConfig) -> float:
        """Sparsity of the matrix feeding the first network layer."""
        if self.uses_empty_space_skipping:
            return config.scene.ray_marching_sparsity
        return 0.0

    def mlp_gemms(
        self,
        prefix: str,
        layer_shapes: list[tuple[int, int]],
        num_samples: int,
        config: FrameConfig,
        first_layer_sparsity: float | None = None,
    ) -> list[GEMMOp]:
        """Build GEMM ops for an MLP given its (in, out) layer shapes.

        The first layer consumes the encoded features (sparsity from
        ray-marching when the model skips empty space); the remaining layers
        consume post-ReLU activations with ~50 % sparsity.
        """
        if first_layer_sparsity is None:
            first_layer_sparsity = self.input_sparsity(config)
        ops = []
        for i, (in_features, out_features) in enumerate(layer_shapes):
            activation_sparsity = first_layer_sparsity if i == 0 else RELU_SPARSITY
            ops.append(
                GEMMOp(
                    name=f"{prefix}/layer{i}",
                    m=num_samples,
                    n=out_features,
                    k=in_features,
                    activation_sparsity=activation_sparsity,
                    precision=config.precision,
                )
            )
        return ops

    def sampling_op(self, config: FrameConfig, samples_per_ray: int) -> MiscOp:
        """Ray generation + stratified sampling cost."""
        num_samples = config.num_rays * samples_per_ray
        return MiscOp(
            name=f"{self.name}/ray-sampling",
            flops=num_samples * 8.0,
            memory_bytes=num_samples * 3 * 4.0,
        )

    def volume_rendering_op(self, config: FrameConfig, num_samples: int) -> MiscOp:
        """Volume-rendering (transmittance + compositing) cost."""
        return MiscOp(
            name=f"{self.name}/volume-rendering",
            flops=num_samples * 20.0,
            memory_bytes=num_samples * 4 * 4.0,
        )

    def positional_encoding_op(
        self,
        config: FrameConfig,
        num_points: int,
        input_dim: int,
        num_frequencies: int,
        name: str = "positional-encoding",
    ) -> EncodingOp:
        return EncodingOp(
            name=f"{self.name}/{name}",
            kind="positional",
            num_points=num_points,
            input_dim=input_dim,
            output_dim=input_dim * 2 * num_frequencies,
        )

    def hash_encoding_op(
        self,
        config: FrameConfig,
        num_points: int,
        num_levels: int,
        features_per_level: int,
        name: str = "hash-encoding",
        log2_table_size: int = 19,
    ) -> EncodingOp:
        table_bytes = num_levels * (1 << log2_table_size) * features_per_level * 2.0
        return EncodingOp(
            name=f"{self.name}/{name}",
            kind="hash",
            num_points=num_points,
            input_dim=3,
            output_dim=num_levels * features_per_level,
            table_lookups_per_point=num_levels * 8,
            table_bytes=table_bytes,
        )

    def make_workload(self, config: FrameConfig, ops: list) -> Workload:
        return Workload(
            model_name=self.name,
            ops=ops,
            image_width=config.image_width,
            image_height=config.image_height,
            batch_size=config.batch_size,
        )
