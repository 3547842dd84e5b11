"""1D mesh network used for unicast operand delivery (paper Fig. 9(a)).

One operand of the GEMM (the per-MAC-unique matrix-2 elements in Fig. 5) is
always delivered in a unicast manner.  FlexNeRFer uses a simple 1D mesh per
row for this: element *i* enters at the row port and hops link by link until
it reaches MAC *i*.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.validate import require_count


@dataclass
class MeshDelivery:
    """Cost summary of one unicast distribution over the 1D mesh."""

    deliveries: dict[int, Hashable]
    link_traversals: int
    buffer_reads: int


class Mesh1D:
    """A single-row 1D mesh of ``num_nodes`` MAC endpoints."""

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = require_count("num_nodes", num_nodes, 1)

    def route(self, assignment: Sequence[Hashable]) -> MeshDelivery:
        """Deliver ``assignment[i]`` to node ``i`` by store-and-forward hops."""
        if len(assignment) > self.num_nodes:
            raise ValueError(
                f"assignment has {len(assignment)} entries for a "
                f"{self.num_nodes}-node mesh"
            )
        deliveries = {
            node: value for node, value in enumerate(assignment) if value is not None
        }
        # Element destined for node i traverses i+1 links (injection + hops).
        traversals = sum(node + 1 for node in deliveries)
        return MeshDelivery(
            deliveries=deliveries,
            link_traversals=traversals,
            buffer_reads=len(deliveries),
        )
