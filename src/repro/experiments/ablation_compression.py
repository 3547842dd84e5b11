"""Ablation: DRAM traffic with and without sparsity-aware compression.

Section 4.3 / Fig. 18(a): storing operands in their optimal sparsity format
cuts off-chip traffic and therefore DRAM access time.  This ablation runs the
same pruned workloads through FlexNeRFer's memory model with compression
enabled and disabled and reports the traffic reduction per model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import FlexNeRFerConfig
from repro.experiments.api import Column, experiment
from repro.nerf.models import FrameConfig
from repro.sim.memory import MemoryTrafficModel
from repro.sim.sweep import SweepEngine, get_default_engine
from repro.sim.tiling import tile_counts
from repro.sim.array_config import ArrayConfig
from repro.sparse.formats import Precision

DEFAULT_MODELS = ("nerf", "instant-ngp", "tensorf")


@dataclass(frozen=True)
class CompressionAblationRow:
    """DRAM traffic of one model with and without compression."""

    model: str
    pruning_ratio: float
    uncompressed_bytes: float
    compressed_bytes: float

    @property
    def traffic_reduction(self) -> float:
        if self.uncompressed_bytes == 0:
            return 0.0
        return 1.0 - self.compressed_bytes / self.uncompressed_bytes


@experiment(
    "ablation-compression",
    title="DRAM traffic with vs without sparsity-aware compression",
    tags=("ablation", "sparsity", "frame-sim"),
    params={
        "models": "models to measure",
        "pruning_ratio": "structured pruning ratio",
        "precision": "operand precision",
    },
    columns=(
        Column("model", "<14"),
        Column("pruning %", ">9.0f", value=lambda r: r.pruning_ratio * 100),
        Column("dense [MB]", ">11.2f", value=lambda r: r.uncompressed_bytes / 1e6),
        Column(
            "compressed [MB]", ">16.2f", value=lambda r: r.compressed_bytes / 1e6
        ),
        Column(
            "reduction",
            "",
            value=lambda r: f"{r.traffic_reduction * 100:>9.1f}%",
            header_spec=">10",
        ),
    ),
)
def run(
    models: tuple[str, ...] = DEFAULT_MODELS,
    pruning_ratio: float = 0.5,
    precision: Precision = Precision.INT16,
    config: FrameConfig | None = None,
    engine: SweepEngine | None = None,
) -> list[CompressionAblationRow]:
    """Measure per-model weight/activation DRAM traffic with both settings."""
    engine = engine or get_default_engine()
    config = config or FrameConfig()
    accel_config = FlexNeRFerConfig()
    array = ArrayConfig(
        name="traffic-probe",
        rows=accel_config.array_rows,
        cols=accel_config.array_cols,
        bit_scalable=True,
        supports_sparsity=True,
    )
    with_compression = MemoryTrafficModel(compression_enabled=True)
    without_compression = MemoryTrafficModel(compression_enabled=False)

    rows = []
    for name in models:
        workload = (
            engine.workload(name, config)
            .with_precision(precision)
            .pruned(pruning_ratio)
        )
        compressed = 0.0
        uncompressed = 0.0
        for op in workload.gemm_ops():
            grid = tile_counts(op, array)
            compressed += with_compression.traffic(
                op, tiles_m=grid.tiles_m, tiles_n=grid.tiles_n
            ).total_bytes
            uncompressed += without_compression.traffic(
                op, tiles_m=grid.tiles_m, tiles_n=grid.tiles_n
            ).total_bytes
        rows.append(
            CompressionAblationRow(
                model=name,
                pruning_ratio=pruning_ratio,
                uncompressed_bytes=uncompressed,
                compressed_bytes=compressed,
            )
        )
    return rows
