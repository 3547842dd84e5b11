"""Hierarchical mesh distribution networks (HM-NoC and HMF-NoC).

Both networks are modelled as balanced switch trees that deliver operand
elements from a buffer port to a set of leaves (MAC units or sub-multipliers).
They support the three 1D dataflows -- broadcast, multicast and unicast --
required for dense mapping of sparse irregular GEMMs (paper Section 4.1.2).

The difference between the two is the feedback path: HMF-NoC nodes are 3x3
switches with a feedback input, so an element already resident at some leaf
from the previous distribution step can be forwarded laterally instead of
being re-read from the on-chip buffer.  The route planner here counts buffer
reads and switch traversals for both networks so the energy model can
reproduce the ~2.5x on-chip-access energy advantage the paper reports.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from repro.noc.dataflow import DataflowMode, classify_assignment
from repro.noc.switch import Switch2x2, Switch3x3
from repro.validate import require_count


@dataclass
class RouteResult:
    """Outcome of distributing one operand vector to the leaves."""

    mode: DataflowMode
    deliveries: dict[int, Hashable]
    buffer_reads: int
    switch_traversals: int
    feedback_forwards: int = 0
    levels: int = 0


class HMNoC:
    """Eyeriss v2-style hierarchical mesh NoC (2x2 switches, no feedback)."""

    switch_cls = Switch2x2
    has_feedback = False

    def __init__(self, num_leaves: int, fanout: int = 2) -> None:
        self.num_leaves = require_count("num_leaves", num_leaves, 1)
        self.fanout = require_count("fanout", fanout, 2)
        self.levels = max(1, math.ceil(math.log(num_leaves, fanout)))
        self.switches = self._build_switches()
        self._resident: dict[int, Hashable] = {}

    def _build_switches(self) -> list[list[Switch2x2]]:
        """One list of switches per tree level (root level first)."""
        levels: list[list[Switch2x2]] = []
        nodes = 1
        for level in range(self.levels):
            levels.append(
                [self.switch_cls(name=f"L{level}_{i}") for i in range(nodes)]
            )
            nodes *= self.fanout
        return levels

    @property
    def num_switches(self) -> int:
        return sum(len(level) for level in self.switches)

    def reset(self) -> None:
        """Clear resident state and switch activation counters."""
        self._resident.clear()
        for level in self.switches:
            for switch in level:
                switch.activations = 0

    def route(self, assignment: Sequence[Hashable]) -> RouteResult:
        """Distribute ``assignment[i]`` to leaf ``i`` and account for the cost.

        Every distinct value requires one buffer read; it then traverses one
        switch per tree level towards each destination subtree.  Shared
        values reuse the common prefix of their paths (that is what makes
        multicast/broadcast cheaper than repeated unicast).
        """
        if len(assignment) > self.num_leaves:
            raise ValueError(
                f"assignment has {len(assignment)} entries but the network "
                f"has only {self.num_leaves} leaves"
            )
        mode = classify_assignment(assignment)
        deliveries = {
            leaf: value
            for leaf, value in enumerate(assignment)
            if value is not None
        }
        reads, traversals, feedback = self._plan(deliveries)
        self._resident = dict(deliveries)
        return RouteResult(
            mode=mode,
            deliveries=deliveries,
            buffer_reads=reads,
            switch_traversals=traversals,
            feedback_forwards=feedback,
            levels=self.levels,
        )

    # -- internal ---------------------------------------------------------

    def _plan(self, deliveries: dict[int, Hashable]) -> tuple[int, int, int]:
        reads = len({v for v in deliveries.values()})
        traversals = self._count_traversals(deliveries)
        return reads, traversals, 0

    def _count_traversals(self, deliveries: dict[int, Hashable]) -> int:
        """Count switch traversals with path sharing for identical values."""
        traversals = 0
        # Per level, count the distinct (subtree, value) pairs that must be
        # forwarded: a value entering a subtree traverses that subtree's
        # switch exactly once regardless of how many leaves below need it.
        for level in range(self.levels):
            subtree_size = self.num_leaves / (self.fanout ** (level + 1))
            seen: set[tuple[int, Hashable]] = set()
            for leaf, value in deliveries.items():
                subtree = int(leaf // max(subtree_size, 1))
                seen.add((subtree, value))
            traversals += len(seen)
        return traversals


class HMFNoC(HMNoC):
    """FlexNeRFer's hierarchical mesh NoC with feedback (3x3 switches)."""

    switch_cls = Switch3x3
    has_feedback = True

    def _plan(self, deliveries: dict[int, Hashable]) -> tuple[int, int, int]:
        resident_values = set(self._resident.values())
        needed_values = {v for v in deliveries.values()}
        # Values already present somewhere in the array are forwarded over the
        # feedback path instead of being re-read from the buffer.
        reused = needed_values & resident_values
        fresh = needed_values - resident_values
        reads = len(fresh)
        fresh_deliveries = {
            leaf: value for leaf, value in deliveries.items() if value in fresh
        }
        traversals = self._count_traversals(fresh_deliveries)
        # Each reused value is moved laterally once per destination leaf that
        # needs it (single-hop feedback forward).
        feedback = sum(1 for value in deliveries.values() if value in reused)
        return reads, traversals, feedback
