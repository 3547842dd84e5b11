"""Reduction trees (paper Section 4.2, Fig. 12).

Two levels of reduction exist in FlexNeRFer:

* inside each bit-scalable MAC unit, a shifter-optimised shift-add tree fuses
  the sixteen 4-bit partial products into 1 / 4 / 16 results depending on the
  precision mode (:class:`MACUnitReductionTree`);
* across MAC units, a flexible augmented reduction tree (ART) whose nodes are
  bypassable adders with index comparators either adds two incoming partial
  sums (when they belong to the same output element) or forwards them
  unchanged (:class:`FlexibleReductionTree`).  This is what allows several
  output rows of a sparse GEMM to share one physical column of the array.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mac_unit import SHIFTERS_OPTIMIZED, SHIFTERS_UNOPTIMIZED
from repro.hw.components import DEFAULT_LIBRARY, ComponentLibrary
from repro.sparse.formats import Precision


@dataclass
class ReductionResult:
    """Outcome of one flexible-reduction pass."""

    outputs: dict[object, float]
    add_operations: int
    bypass_operations: int


class MACUnitReductionTree:
    """Shifter-optimised shift-add tree inside one MAC unit."""

    def __init__(self, optimized: bool = True) -> None:
        self.optimized = optimized

    @property
    def num_shifters(self) -> int:
        return SHIFTERS_OPTIMIZED if self.optimized else SHIFTERS_UNOPTIMIZED

    @staticmethod
    def reduce(partial_products: list[int], precision: Precision) -> list[int]:
        """Fuse 16 shifted partial products into per-lane results.

        ``partial_products[i*4 + j]`` is the product of nibble ``i`` of operand
        A and nibble ``j`` of operand B for the lane those nibbles belong to.
        The grouping per precision mode follows paper Fig. 6(a).
        """
        if len(partial_products) != 16:
            raise ValueError("a MAC unit produces 16 partial products per cycle")
        if precision is Precision.INT16:
            total = 0
            for i in range(4):
                for j in range(4):
                    total += partial_products[i * 4 + j] << (4 * (i + j))
            return [total]
        if precision is Precision.INT8:
            results = []
            for lane in range(4):
                base = lane * 4
                lane_sum = 0
                for i in range(2):
                    for j in range(2):
                        lane_sum += partial_products[base + i * 2 + j] << (4 * (i + j))
                results.append(lane_sum)
            return results
        return list(partial_products)


class FlexibleReductionTree:
    """Array-level augmented reduction tree with bypassable adder nodes."""

    def __init__(
        self, num_leaves: int, library: ComponentLibrary = DEFAULT_LIBRARY
    ) -> None:
        if num_leaves < 2:
            raise ValueError("reduction tree needs at least two leaves")
        self.num_leaves = num_leaves
        self.library = library

    @property
    def num_nodes(self) -> int:
        return self.num_leaves - 1

    def reduce(
        self, values: list[float], output_ids: list[object]
    ) -> ReductionResult:
        """Reduce leaf values, summing only values that share an output id.

        Models the comparator + bypassable adder behaviour: at every tree node
        the two incoming operands are added if their output indices match and
        forwarded side by side otherwise.  The result maps each output id to
        its accumulated sum.
        """
        if len(values) != len(output_ids):
            raise ValueError("values and output_ids must have the same length")
        if len(values) > self.num_leaves:
            raise ValueError(
                f"got {len(values)} leaves for a {self.num_leaves}-leaf tree"
            )
        adds = 0
        bypasses = 0
        # Each tree level merges adjacent groups; we model the value flow with
        # per-group dictionaries keyed by output id.
        groups: list[dict[object, float]] = [
            {oid: val} for val, oid in zip(values, output_ids)
        ]
        while len(groups) > 1:
            merged: list[dict[object, float]] = []
            for i in range(0, len(groups) - 1, 2):
                left, right = groups[i], groups[i + 1]
                combined = dict(left)
                for oid, val in right.items():
                    if oid in combined:
                        combined[oid] += val
                        adds += 1
                    else:
                        combined[oid] = val
                        bypasses += 1
                merged.append(combined)
            if len(groups) % 2 == 1:
                merged.append(groups[-1])
            groups = merged
        return ReductionResult(
            outputs=groups[0] if groups else {},
            add_operations=adds,
            bypass_operations=bypasses,
        )

    def cost(self):
        """Area/power of the array-level ART (bypassable adder nodes)."""
        return self.library.compose(
            "flexible-reduction-tree", {"flex_adder_node": self.num_nodes}
        )
