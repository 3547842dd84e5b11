"""Tests for the MAC-unit and array-level reduction trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduction import FlexibleReductionTree, MACUnitReductionTree
from repro.sparse.formats import Precision


class TestMACUnitReductionTree:
    def test_shifter_counts_match_paper(self):
        assert MACUnitReductionTree(optimized=True).num_shifters == 16
        assert MACUnitReductionTree(optimized=False).num_shifters == 24

    def test_int4_mode_passes_products_through(self):
        products = list(range(16))
        assert MACUnitReductionTree.reduce(products, Precision.INT4) == products

    def test_int8_mode_groups_of_four(self):
        # lane products arranged so each lane computes (1 + 2*16 + 3*16 + 4*256)
        products = [1, 2, 3, 4] * 4
        results = MACUnitReductionTree.reduce(products, Precision.INT8)
        assert len(results) == 4
        assert all(r == 1 + (2 + 3) * 16 + 4 * 256 for r in results)

    def test_int16_mode_single_result(self):
        products = [1] * 16
        results = MACUnitReductionTree.reduce(products, Precision.INT16)
        assert len(results) == 1
        expected = sum(1 << (4 * (i + j)) for i in range(4) for j in range(4))
        assert results[0] == expected

    def test_wrong_product_count_rejected(self):
        with pytest.raises(ValueError):
            MACUnitReductionTree.reduce([1, 2, 3], Precision.INT4)


class TestFlexibleReductionTree:
    def test_groups_by_output_index(self):
        tree = FlexibleReductionTree(num_leaves=8)
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        output_ids = ["a", "a", "a", "b", "b", "c", "c", "c"]
        result = tree.reduce(values, output_ids)
        assert result.outputs == {"a": 6.0, "b": 9.0, "c": 21.0}

    def test_all_same_output_is_full_sum(self):
        tree = FlexibleReductionTree(num_leaves=4)
        result = tree.reduce([1.0, 2.0, 3.0, 4.0], ["o"] * 4)
        assert result.outputs == {"o": 10.0}
        assert result.bypass_operations == 0

    def test_all_distinct_outputs_only_bypass(self):
        tree = FlexibleReductionTree(num_leaves=4)
        result = tree.reduce([1.0, 2.0, 3.0, 4.0], list("abcd"))
        assert result.add_operations == 0
        assert len(result.outputs) == 4

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            FlexibleReductionTree(4).reduce([1.0], ["a", "b"])

    def test_too_many_leaves_rejected(self):
        with pytest.raises(ValueError):
            FlexibleReductionTree(2).reduce([1.0, 2.0, 3.0], list("abc"))

    def test_cost_scales_with_leaves(self):
        small = FlexibleReductionTree(64).cost()
        large = FlexibleReductionTree(4096).cost()
        assert large.area_um2 > small.area_um2


@given(
    data=st.lists(
        st.tuples(st.floats(-100, 100), st.integers(0, 5)), min_size=1, max_size=64
    )
)
@settings(max_examples=80, deadline=None)
def test_flexible_reduction_matches_grouped_sum(data):
    """The ART produces exactly the per-output sums, for any grouping."""
    values = [v for v, _ in data]
    output_ids = [f"out{i}" for _, i in data]
    tree = FlexibleReductionTree(num_leaves=64)
    result = tree.reduce(values, output_ids)
    expected = {}
    for value, oid in zip(values, output_ids):
        expected[oid] = expected.get(oid, 0.0) + value
    assert set(result.outputs) == set(expected)
    for key, total in expected.items():
        assert result.outputs[key] == pytest.approx(total)
