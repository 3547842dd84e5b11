"""Workload descriptors: the operations one frame of a NeRF model performs.

The hardware evaluation does not need trained weights -- it needs the *shape*
of the computation: which GEMM/GEMV operations run, at what sizes and sparsity,
how many encoding operations are performed, and how much miscellaneous work
(ray sampling, volume rendering) remains.  A :class:`Workload` is an ordered
list of such operations; every model in :mod:`repro.nerf.models` builds one
from its architecture, and the GPU baseline as well as the FlexNeRFer
simulator consume it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.sparse.formats import Precision
from repro.validate import require_count, require_nonnegative


class OpCategory(enum.Enum):
    """Runtime category used for the breakdowns of paper Fig. 3 and Fig. 18."""

    GEMM = "gemm"
    ENCODING = "encoding"
    OTHER = "other"


@dataclass(frozen=True)
class GEMMOp:
    """A (possibly sparse, possibly irregular) GEMM: (M x K) @ (K x N)."""

    name: str
    m: int
    n: int
    k: int
    weight_sparsity: float = 0.0
    activation_sparsity: float = 0.0
    precision: Precision = Precision.INT16
    count: int = 1
    #: Whether the activations are streamed from off-chip DRAM.  Intermediate
    #: MLP activations are produced on-chip by the previous layer (or by the
    #: encoding unit) in a fused, batch-tiled execution and default to False.
    activations_from_dram: bool = False
    #: Whether the outputs are written back to off-chip DRAM (only the final
    #: per-sample outputs consumed by volume rendering usually are not).
    outputs_to_dram: bool = False

    category = OpCategory.GEMM

    def __post_init__(self) -> None:
        for name in ("m", "n", "k", "count"):
            require_count(f"{self.name}.{name}", getattr(self, name), 1)
        for value in (self.weight_sparsity, self.activation_sparsity):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"sparsity must be in [0, 1): {self}")

    @property
    def macs(self) -> float:
        """Dense multiply-accumulate count."""
        return float(self.m) * self.n * self.k * self.count

    @property
    def flops(self) -> float:
        return 2.0 * self.macs

    @property
    def effective_macs(self) -> float:
        """MACs remaining after zero-skipping both operands."""
        return self.macs * (1.0 - self.weight_sparsity) * (1.0 - self.activation_sparsity)

    @property
    def input_bytes(self) -> float:
        """Bytes of both operands at the op's precision (dense layout)."""
        per_element = self.precision.bits / 8.0
        return (self.m * self.k + self.k * self.n) * per_element * self.count

    @property
    def output_bytes(self) -> float:
        return self.m * self.n * 4.0 * self.count  # 32-bit accumulators

    def pruned(self, ratio: float) -> "GEMMOp":
        """Return a copy with structured pruning applied to the weights."""
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"pruning ratio must be in [0, 1), got {ratio}")
        combined = 1.0 - (1.0 - self.weight_sparsity) * (1.0 - ratio)
        return replace(self, weight_sparsity=combined)

    def with_precision(self, precision: Precision) -> "GEMMOp":
        return replace(self, precision=precision)


@dataclass(frozen=True)
class EncodingOp:
    """A neural feature-encoding operation (positional or hash encoding)."""

    name: str
    kind: str                   # "positional" or "hash"
    num_points: int
    input_dim: int
    output_dim: int
    table_lookups_per_point: int = 0
    count: int = 1
    #: Size of the lookup table backing a hash/voxel/factor encoding, in bytes
    #: (e.g. ~32 MiB for Instant-NGP's 16-level hash grid).  Zero for
    #: positional encodings, which have no table.
    table_bytes: float = 0.0
    #: How many times the table is effectively streamed from DRAM per frame
    #: (captures cache misses beyond the first compulsory pass).
    table_passes: float = 2.0

    category = OpCategory.ENCODING

    def __post_init__(self) -> None:
        if self.kind not in ("positional", "hash"):
            raise ValueError(f"unknown encoding kind '{self.kind}'")
        for name in ("num_points", "input_dim", "output_dim", "count"):
            require_count(f"{self.name}.{name}", getattr(self, name), 1)
        require_count(
            f"{self.name}.table_lookups_per_point", self.table_lookups_per_point, 0
        )
        for name in ("table_bytes", "table_passes"):
            require_nonnegative(f"{self.name}.{name}", getattr(self, name))

    @property
    def flops(self) -> float:
        if self.kind == "positional":
            # Two trig evaluations (or their approximations) per output value.
            per_point = self.output_dim * 6.0
        else:
            # Per lookup: hash computation + trilinear interpolation of the
            # 8 corners for each feature channel.
            per_point = self.table_lookups_per_point * (8.0 + 2.0 * self.output_dim)
        return per_point * self.num_points * self.count

    @property
    def input_bytes(self) -> float:
        return self.num_points * self.input_dim * 4.0 * self.count

    @property
    def output_bytes(self) -> float:
        return self.num_points * self.output_dim * 2.0 * self.count

    @property
    def memory_bytes(self) -> float:
        """Total bytes moved including table lookups (hash encoding)."""
        lookup_bytes = (
            self.num_points * self.table_lookups_per_point * 4.0 * self.count
        )
        return self.input_bytes + self.output_bytes + lookup_bytes

    @property
    def dram_bytes(self) -> float:
        """Off-chip traffic: the table working set streamed ``table_passes`` times.

        Individual lookups hit the on-chip encoding buffer / caches; only the
        table itself must be brought in from DRAM.
        """
        if self.kind != "hash" or self.table_bytes <= 0:
            return 0.0
        lookup_bytes = (
            self.num_points * self.table_lookups_per_point * 4.0 * self.count
        )
        return min(self.table_bytes * self.table_passes * self.count, lookup_bytes)


@dataclass(frozen=True)
class MiscOp:
    """Everything else: ray sampling, volume rendering, compositing, etc."""

    name: str
    flops: float
    memory_bytes: float
    count: int = 1

    category = OpCategory.OTHER

    def __post_init__(self) -> None:
        for name in ("flops", "memory_bytes"):
            require_nonnegative(f"{self.name}.{name}", getattr(self, name))
        require_count(f"{self.name}.count", self.count, 1)

    @property
    def input_bytes(self) -> float:
        return self.memory_bytes * 0.5 * self.count

    @property
    def output_bytes(self) -> float:
        return self.memory_bytes * 0.5 * self.count


Op = GEMMOp | EncodingOp | MiscOp


@dataclass
class Workload:
    """One frame's worth of operations for a NeRF model."""

    model_name: str
    ops: list[Op] = field(default_factory=list)
    image_width: int = 800
    image_height: int = 800
    batch_size: int = 4096

    @property
    def num_rays(self) -> int:
        return self.image_width * self.image_height

    def gemm_ops(self) -> list[GEMMOp]:
        return [op for op in self.ops if isinstance(op, GEMMOp)]

    def encoding_ops(self) -> list[EncodingOp]:
        return [op for op in self.ops if isinstance(op, EncodingOp)]

    def misc_ops(self) -> list[MiscOp]:
        return [op for op in self.ops if isinstance(op, MiscOp)]

    @property
    def total_flops(self) -> float:
        return sum(op.flops for op in self.ops)

    def pruned(self, ratio: float) -> "Workload":
        """Workload with structured pruning applied to every GEMM weight."""
        new_ops: list[Op] = [
            op.pruned(ratio) if isinstance(op, GEMMOp) else op for op in self.ops
        ]
        return Workload(
            model_name=self.model_name,
            ops=new_ops,
            image_width=self.image_width,
            image_height=self.image_height,
            batch_size=self.batch_size,
        )

    def with_precision(self, precision: Precision) -> "Workload":
        """Workload with every GEMM re-expressed at ``precision``."""
        new_ops: list[Op] = [
            op.with_precision(precision) if isinstance(op, GEMMOp) else op
            for op in self.ops
        ]
        return Workload(
            model_name=self.model_name,
            ops=new_ops,
            image_width=self.image_width,
            image_height=self.image_height,
            batch_size=self.batch_size,
        )
