"""Tests for the online sparsity-aware compressor (paper Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import SparsityAwareCompressor, SparsityRatioCalculator
from repro.sparse.formats import Precision, SparsityFormat
from repro.sparse.tensor import random_sparse_matrix, sparsity_ratio


class TestSparsityRatioCalculator:
    def test_eq4_matches_true_sparsity(self, rng):
        calculator = SparsityRatioCalculator()
        tile = random_sparse_matrix((64, 64), 0.7, rng=rng)
        calculator.observe_fetch(tile)
        assert calculator.sparsity_ratio == pytest.approx(sparsity_ratio(tile))
        assert calculator.sparsity_percent == pytest.approx(100 * sparsity_ratio(tile))

    def test_accumulates_across_fetches(self, rng):
        calculator = SparsityRatioCalculator()
        calculator.observe_fetch(np.zeros((8, 8)))
        calculator.observe_fetch(np.ones((8, 8)))
        assert calculator.num_fetches == 2
        assert calculator.sparsity_ratio == pytest.approx(0.5)

    def test_reset(self, rng):
        calculator = SparsityRatioCalculator()
        calculator.observe_fetch(np.ones((4, 4)))
        calculator.reset()
        assert calculator.sparsity_ratio == 0.0
        assert calculator.num_fetches == 0


class TestCompressor:
    def test_input_compression_roundtrip(self, rng):
        compressor = SparsityAwareCompressor(Precision.INT16)
        tile = random_sparse_matrix((64, 64), 0.85, Precision.INT16, rng)
        record = compressor.compress_input(tile)
        np.testing.assert_array_equal(compressor.decompress(record.encoded), tile)

    def test_sparse_input_is_actually_compressed(self, rng):
        compressor = SparsityAwareCompressor(Precision.INT16)
        record = compressor.compress_input(
            random_sparse_matrix((64, 64), 0.9, Precision.INT16, rng)
        )
        assert record.encoded.fmt is not SparsityFormat.NONE
        assert record.compression_ratio > 1.5

    def test_dense_input_stays_uncompressed(self, rng):
        compressor = SparsityAwareCompressor(Precision.INT16)
        record = compressor.compress_input(
            random_sparse_matrix((64, 64), 0.0, Precision.INT16, rng)
        )
        assert record.encoded.fmt is SparsityFormat.NONE
        assert record.compression_ratio == pytest.approx(1.0)

    def test_weight_preanalysis_and_reuse(self, rng):
        compressor = SparsityAwareCompressor(Precision.INT8)
        weights = random_sparse_matrix((128, 128), 0.8, Precision.INT8, rng)
        decision = compressor.analyze_weights("layer0", weights)
        assert compressor.weight_format("layer0") is decision.fmt
        record = compressor.compress_weights("layer0", weights)
        np.testing.assert_array_equal(compressor.decompress(record.encoded), weights)

    def test_unanalysed_weights_rejected(self):
        with pytest.raises(KeyError):
            SparsityAwareCompressor().weight_format("never-seen")


@given(
    sparsity=st.floats(0.0, 1.0),
    precision=st.sampled_from(list(Precision)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_compression_never_loses_data_and_never_exceeds_candidates(
    sparsity, precision, seed
):
    """Property: compression is loss-less and picks a footprint-minimal format."""
    rng = np.random.default_rng(seed)
    tile = random_sparse_matrix((32, 32), sparsity, precision, rng)
    compressor = SparsityAwareCompressor(precision)
    record = compressor.compress_input(tile)
    np.testing.assert_array_equal(compressor.decompress(record.encoded), tile)
    assert record.compressed_bits <= max(record.decision.bits_per_format.values())
