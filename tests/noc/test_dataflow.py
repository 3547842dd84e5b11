"""Tests for dataflow classification (unicast / multicast / broadcast)."""

from repro.noc.dataflow import (
    DataflowMode,
    classify_assignment,
    row_dataflows,
)


class TestClassifyAssignment:
    def test_broadcast(self):
        assert classify_assignment(["A", "A", "A", "A"]) is DataflowMode.BROADCAST

    def test_unicast(self):
        assert classify_assignment(["A", "B", "C", "D"]) is DataflowMode.UNICAST

    def test_multicast(self):
        assert classify_assignment(["A", "A", "B", "C"]) is DataflowMode.MULTICAST

    def test_idle(self):
        assert classify_assignment([None, None]) is DataflowMode.IDLE

    def test_single_destination_is_unicast(self):
        assert classify_assignment(["A"]) is DataflowMode.UNICAST

    def test_partial_assignment_with_repeats_is_multicast(self):
        assert classify_assignment(["A", "A", None, None]) is DataflowMode.MULTICAST

    def test_same_value_everywhere_but_holes_is_multicast_not_broadcast(self):
        # A true broadcast reaches every destination; holes demote it.
        assert classify_assignment(["A", None, "A", "A"]) is DataflowMode.MULTICAST


class TestGridClassification:
    def test_fig5_style_mapping(self):
        """Row-wise pattern of paper Fig. 5: broadcast, multicast and unicast rows."""
        grid = [
            ["A", "A", "A", "A"],   # broadcast
            ["B", "B", "C", "C"],   # multicast
            ["D", "E", "F", "G"],   # unicast
            [None, None, None, "H"],  # single element
        ]
        modes = row_dataflows(grid)
        assert modes == [
            DataflowMode.BROADCAST,
            DataflowMode.MULTICAST,
            DataflowMode.UNICAST,
            DataflowMode.UNICAST,
        ]
