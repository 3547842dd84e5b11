"""Online sparsity-aware data compression (paper Section 4.3, Fig. 13(b)).

Input tensors have dynamic sparsity that varies across rendering stages, so
FlexNeRFer measures the sparsity ratio of each tile on the fly (popcount over
the fetched non-zero bitmap, Eq. 4), selects the optimal storage format for
the active precision mode, and encodes the tile with the flexible format
encoder before it is written back to memory.  Weights are static, so their
sparsity is pre-analysed offline and they are stored in their optimal format
in local DRAM ahead of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.codecs import EncodedTensor, get_codec
from repro.sparse.formats import Precision, SparsityFormat
from repro.sparse.selector import FormatDecision, FormatSelector


@dataclass
class SparsityRatioCalculator:
    """Popcount-based online sparsity-ratio measurement (paper Eq. 4)."""

    precision: Precision = Precision.INT16
    popcount_width: int = 64
    _total_nonzero: int = field(default=0, init=False)
    _total_elements: int = field(default=0, init=False)
    _num_fetches: int = field(default=0, init=False)

    def reset(self) -> None:
        self._total_nonzero = 0
        self._total_elements = 0
        self._num_fetches = 0

    def observe_fetch(self, tile: np.ndarray) -> int:
        """Process one fetched tile; returns its popcount (non-zero count)."""
        tile = np.asarray(tile)
        bitmap = tile != 0
        popcount = int(np.count_nonzero(bitmap))
        self._total_nonzero += popcount
        self._total_elements += int(tile.size)
        self._num_fetches += 1
        return popcount

    @property
    def num_fetches(self) -> int:
        return self._num_fetches

    @property
    def sparsity_ratio(self) -> float:
        """Accumulated sparsity ratio in [0, 1] (Eq. 4 divided by 100)."""
        if self._total_elements == 0:
            return 0.0
        return 1.0 - self._total_nonzero / self._total_elements

    @property
    def sparsity_percent(self) -> float:
        return self.sparsity_ratio * 100.0


@dataclass
class CompressionRecord:
    """Result of compressing one tensor."""

    encoded: EncodedTensor
    decision: FormatDecision
    original_bits: int

    @property
    def compressed_bits(self) -> int:
        return self.encoded.storage_bits

    @property
    def compression_ratio(self) -> float:
        """Original size over compressed size (>1 means the format helped)."""
        return self.original_bits / max(self.compressed_bits, 1)


class SparsityAwareCompressor:
    """The flexible format encoder/decoder pair plus the SR calculator."""

    def __init__(self, precision: Precision = Precision.INT16) -> None:
        self.precision = precision
        self.calculator = SparsityRatioCalculator(precision=precision)
        self.selector = FormatSelector()
        self._weight_formats: dict[str, SparsityFormat] = {}

    # -- online path (inputs) ---------------------------------------------------

    def compress_input(self, tile: np.ndarray) -> CompressionRecord:
        """Measure a tile's sparsity online and encode it in the best format."""
        tile = np.asarray(tile)
        self.calculator.reset()
        self.calculator.observe_fetch(tile)
        sparsity = self.calculator.sparsity_ratio
        decision = self.selector.decide(sparsity, self.precision)
        encoded = get_codec(decision.fmt).encode(tile, self.precision)
        return CompressionRecord(
            encoded=encoded,
            decision=decision,
            original_bits=tile.size * self.precision.bits,
        )

    # -- offline path (weights) ----------------------------------------------------

    def analyze_weights(self, name: str, weights: np.ndarray) -> FormatDecision:
        """Pre-analyse a static weight tensor and remember its format."""
        weights = np.asarray(weights)
        sparsity = 1.0 - np.count_nonzero(weights) / weights.size if weights.size else 0.0
        decision = self.selector.decide(sparsity, self.precision)
        self._weight_formats[name] = decision.fmt
        return decision

    def weight_format(self, name: str) -> SparsityFormat:
        """Format chosen for a previously analysed weight tensor."""
        try:
            return self._weight_formats[name]
        except KeyError as exc:
            raise KeyError(f"weight tensor '{name}' has not been analysed") from exc

    def compress_weights(self, name: str, weights: np.ndarray) -> CompressionRecord:
        """Encode a pre-analysed weight tensor in its recorded format."""
        fmt = self.weight_format(name)
        weights = np.asarray(weights)
        encoded = get_codec(fmt).encode(weights, self.precision)
        sparsity = 1.0 - np.count_nonzero(weights) / weights.size if weights.size else 0.0
        return CompressionRecord(
            encoded=encoded,
            decision=self.selector.decide(sparsity, self.precision),
            original_bits=weights.size * self.precision.bits,
        )

    # -- decode path -----------------------------------------------------------------

    @staticmethod
    def decompress(encoded: EncodedTensor) -> np.ndarray:
        """Flexible format decoder: reconstruct the dense tile."""
        return get_codec(encoded.fmt).decode(encoded)
