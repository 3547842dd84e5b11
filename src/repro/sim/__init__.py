"""Tile-level performance simulation of GEMM/GEMV arrays.

This is the repo's stand-in for the modified STONNE cycle-level simulator the
paper uses: it models how a GEMM/GEMV operation is tiled onto a MAC array,
what utilisation the mapping achieves (a rigid array's boundary-tile fill
vs. the packing efficiency of FlexNeRFer's sparsity-aware dense mapping,
chosen by ``ArrayConfig.supports_sparsity``), how many cycles the compute
takes, and how much on-chip / off-chip traffic it generates.  The same machinery is configured
differently for FlexNeRFer, NeuRex, SIGMA, Bit Fusion and the commercial
accelerators, so every latency/energy comparison in the evaluation goes
through one code path.
"""

from repro.sim.array_config import ArrayConfig
from repro.sim.tiling import TileGrid, tile_counts
from repro.sim.utilization import effective_mac_utilization, mapping_utilization
from repro.sim.engine import GEMMCycleModel, GEMMExecution
from repro.sim.memory import MemoryTrafficModel, TrafficReport
from repro.sim.trace import ExecutionTrace, OpRecord
from repro.sim.sweep import (
    SweepCacheStats,
    SweepEngine,
    SweepResult,
    SweepSpec,
    aggregate,
    geomean,
    get_default_engine,
    index_rows,
    workload_fingerprint,
)

__all__ = [
    "SweepCacheStats",
    "SweepEngine",
    "SweepResult",
    "SweepSpec",
    "aggregate",
    "geomean",
    "get_default_engine",
    "index_rows",
    "workload_fingerprint",
    "ArrayConfig",
    "TileGrid",
    "tile_counts",
    "effective_mac_utilization",
    "mapping_utilization",
    "GEMMCycleModel",
    "GEMMExecution",
    "MemoryTrafficModel",
    "TrafficReport",
    "ExecutionTrace",
    "OpRecord",
]
