"""Fig. 4: MAC utilisation of NVIDIA NVDLA and Google TPU across scenarios.

Four scenarios from the paper's figure, evaluated on 4x4 (16-MAC) toy arrays:

  (a) early CNN layer (shallow channels)          -- both arrays under-used
  (b) late CNN layer  (deep channels, few pixels) -- NVDLA full, TPU limited
  (c) irregular dense GEMM                         -- TPU full, NVDLA collapses
  (d) irregular sparse GEMM                        -- TPU loses the zero slots
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.nvdla import NVDLAModel
from repro.baselines.tpu import TPUModel
from repro.experiments.api import Column, experiment


@dataclass(frozen=True)
class Scenario:
    """One workload scenario of Fig. 4."""

    key: str
    description: str
    kind: str                  # "conv" or "gemm"
    input_channels: int = 1
    output_channels: int = 1
    spatial_positions: int = 1
    m: int = 1
    n: int = 1
    k: int = 1
    density: float = 1.0


#: The four scenarios, parameterised after the figure's toy matrices.
SCENARIOS = (
    Scenario(
        key="early_cnn",
        description="Early CNN layer: 3 input channels, 2 kernels, 6x6 output",
        kind="conv",
        input_channels=3,
        output_channels=2,
        spatial_positions=36,
    ),
    Scenario(
        key="late_cnn",
        description="Late CNN layer: 64 input channels, 64 kernels, 2 output pixels",
        kind="conv",
        input_channels=64,
        output_channels=64,
        spatial_positions=2,
    ),
    Scenario(
        key="irregular_dense_gemm",
        description="Irregular dense GEMM: (4x4) @ (4x5)",
        kind="gemm",
        m=4,
        n=5,
        k=4,
    ),
    Scenario(
        key="irregular_sparse_gemm",
        description="Irregular sparse GEMM: (4x4) @ (4x5), ~31% zeros",
        kind="gemm",
        m=4,
        n=5,
        k=4,
        density=0.6875,
    ),
)


@dataclass(frozen=True)
class UtilizationRow:
    """MAC utilisation of both accelerators for one scenario."""

    scenario: str
    description: str
    nvdla_utilization: float
    tpu_utilization: float


@experiment(
    "fig04",
    title="NVDLA / TPU MAC utilisation scenarios",
    tags=("baseline", "utilization"),
    columns=(
        Column("scenario", "<24"),
        Column("NVDLA %", ">8.2f", value=lambda r: r.nvdla_utilization * 100),
        Column("TPU %", ">8.2f", value=lambda r: r.tpu_utilization * 100),
    ),
)
def run() -> list[UtilizationRow]:
    """Evaluate every scenario on the NVDLA and TPU utilisation models."""
    nvdla = NVDLAModel(atomic_input_channels=4, atomic_output_kernels=4)
    tpu = TPUModel(rows=4, cols=4)
    rows = []
    for scenario in SCENARIOS:
        if scenario.kind == "conv":
            nvdla_util = nvdla.conv_utilization(
                scenario.input_channels, scenario.output_channels
            )
            tpu_util = tpu.conv_utilization(
                scenario.input_channels,
                scenario.output_channels,
                scenario.spatial_positions,
            )
        else:
            nvdla_util = nvdla.gemm_utilization(
                scenario.m, scenario.n, scenario.k, scenario.density
            )
            tpu_util = tpu.gemm_utilization(
                scenario.m, scenario.n, scenario.k, scenario.density
            )
        rows.append(
            UtilizationRow(
                scenario=scenario.key,
                description=scenario.description,
                nvdla_utilization=nvdla_util,
                tpu_utilization=tpu_util,
            )
        )
    return rows
