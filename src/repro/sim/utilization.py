"""The MAC-utilisation model of rigid and sparsity-aware arrays.

The paper's Fig. 4 shows why rigid commercial arrays lose utilisation on
irregular or sparse GEMMs, and Fig. 5 shows how FlexNeRFer recovers it by
packing only non-zero operands onto the array with flexible dataflows.
:func:`mapping_utilization` captures both behaviours analytically, chosen by
``ArrayConfig.supports_sparsity`` alone: sparsity-aware dense mapping exists
only because the flexible NoC packs the operands, so the two are one
property of the hardware.
"""

from __future__ import annotations

from repro.nerf.workload import GEMMOp
from repro.sim.array_config import ArrayConfig
from repro.sparse.formats import Precision

#: Packing efficiency of a flexible distribution network per precision mode.
#: Lower precisions expose more independent multiplier lanes per MAC unit, and
#: keeping every lane fed with a non-zero operand pair becomes harder, which
#: is why the effective efficiency in paper Table 3 sits below peak by a
#: growing margin as the precision drops.
FLEXIBLE_PACKING_EFFICIENCY = {
    Precision.INT16: 0.97,
    Precision.INT8: 0.85,
    Precision.INT4: 0.78,
}


def mapping_utilization(op: GEMMOp, config: ArrayConfig) -> float:
    """Fraction of the array's MACs a mapping of ``op`` keeps busy.

    A sparsity-aware array packs the non-zero operands densely through its
    flexible NoC, so it is bounded by the packing efficiency at the precision
    it computes at, whatever the shape or the sparsity.  A rigid
    weight-stationary array leaves MAC columns idle in the boundary tiles
    along the reduction and output dimensions, and computes every zero.
    """
    if config.supports_sparsity:
        return FLEXIBLE_PACKING_EFFICIENCY[config.effective_precision(op.precision)]
    grid_rows, grid_cols = config.effective_grid(op.precision)
    fill_n = (op.n / grid_cols) / -(-op.n // grid_cols)
    fill_k = (op.k / grid_rows) / -(-op.k // grid_rows)
    return max(min(fill_n * fill_k, 1.0), 0.0)


def effective_mac_utilization(op: GEMMOp, config: ArrayConfig) -> float:
    """Fraction of peak MAC throughput doing *useful* (non-zero) work."""
    utilization = mapping_utilization(op, config)
    if config.supports_sparsity:
        return utilization
    return utilization * ((1.0 - op.weight_sparsity) * (1.0 - op.activation_sparsity))
