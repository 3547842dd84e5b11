"""Dataflow classification for operand distribution.

A dense mapping of a sparse, irregular GEMM onto the MAC array requires the
distribution network to deliver one operand with unicast, multicast or
broadcast semantics per row/column (paper Fig. 5 and Takeaway 3).  This module
classifies an assignment of values to destinations into one of those modes.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Hashable, Sequence


class DataflowMode(enum.Enum):
    """Delivery pattern required to distribute one operand vector."""

    UNICAST = "unicast"      # every destination receives a distinct value
    MULTICAST = "multicast"  # some values are shared by a strict subset
    BROADCAST = "broadcast"  # one value is shared by every destination
    IDLE = "idle"            # nothing to deliver


def classify_assignment(values: Sequence[Hashable]) -> DataflowMode:
    """Classify the dataflow needed to deliver ``values`` to their slots.

    ``values`` holds, per destination (e.g. per MAC unit in a row), the
    identity of the operand element that must arrive there.  ``None`` entries
    denote destinations that receive nothing.
    """
    live = [v for v in values if v is not None]
    if not live:
        return DataflowMode.IDLE
    counts = Counter(live)
    if len(counts) == 1 and len(live) == len(values) and len(values) > 1:
        return DataflowMode.BROADCAST
    if len(counts) == len(live):
        return DataflowMode.UNICAST
    return DataflowMode.MULTICAST


def row_dataflows(
    grid: Sequence[Sequence[Hashable]],
) -> list[DataflowMode]:
    """Classify the dataflow of every row of a destination grid."""
    return [classify_assignment(list(row)) for row in grid]
