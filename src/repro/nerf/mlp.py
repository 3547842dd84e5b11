"""Minimal NumPy MLP used by the functional NeRF renderers.

Layers expose their GEMM shapes so the workload descriptors can be derived
directly from the network definitions instead of being hand-written twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


@dataclass
class LinearLayer:
    """A fully connected layer ``y = x @ W + b``."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ValueError("weight must be 2D (in_features, out_features)")
        if self.bias.shape != (self.weight.shape[1],):
            raise ValueError("bias shape must match out_features")
        if self.activation not in ("relu", "none", "sigmoid"):
            raise ValueError(f"unsupported activation '{self.activation}'")

    @property
    def in_features(self) -> int:
        return self.weight.shape[0]

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    @classmethod
    def random(
        cls,
        in_features: int,
        out_features: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ) -> "LinearLayer":
        rng = rng or np.random.default_rng()
        scale = np.sqrt(2.0 / in_features)
        return cls(
            weight=rng.normal(0.0, scale, size=(in_features, out_features)),
            bias=np.zeros(out_features),
            activation=activation,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.weight + self.bias
        if self.activation == "relu":
            return relu(y)
        if self.activation == "sigmoid":
            return 1.0 / (1.0 + np.exp(-y))
        return y

    def weight_sparsity(self) -> float:
        """Fraction of exactly-zero weights (non-zero after pruning)."""
        if self.weight.size == 0:
            return 0.0
        return 1.0 - np.count_nonzero(self.weight) / self.weight.size

    def prune(self, ratio: float) -> None:
        """Structured magnitude pruning: zero the smallest-norm output columns."""
        if not 0.0 <= ratio < 1.0:
            raise ValueError(f"pruning ratio must be in [0, 1), got {ratio}")
        num_prune = int(round(self.out_features * ratio))
        if num_prune == 0:
            return
        norms = np.linalg.norm(self.weight, axis=0)
        prune_cols = np.argsort(norms)[:num_prune]
        self.weight[:, prune_cols] = 0.0
        self.bias[prune_cols] = 0.0


@dataclass
class MLP:
    """A stack of linear layers."""

    layers: list[LinearLayer] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        layer_widths: list[int],
        final_activation: str = "none",
        rng: np.random.Generator | None = None,
    ) -> "MLP":
        """Create an MLP from ``layer_widths`` = [in, h1, ..., out]."""
        if len(layer_widths) < 2:
            raise ValueError("need at least an input and an output width")
        rng = rng or np.random.default_rng()
        layers = []
        for i in range(len(layer_widths) - 1):
            is_last = i == len(layer_widths) - 2
            layers.append(
                LinearLayer.random(
                    layer_widths[i],
                    layer_widths[i + 1],
                    activation=final_activation if is_last else "relu",
                    rng=rng,
                )
            )
        return cls(layers=layers)

    def forward(self, x: np.ndarray, start: int = 0) -> np.ndarray:
        """Run ``x`` through the layers from ``start`` onwards.

        ``start`` lets callers that already hold an intermediate activation
        (e.g. layer 0's output, recorded for sparsity stats) resume the
        stack without recomputing the earlier layers.
        """
        for layer in self.layers[start:]:
            x = layer.forward(x)
        return x

    def prune(self, ratio: float) -> None:
        """Apply structured pruning to every hidden layer."""
        for layer in self.layers[:-1]:
            layer.prune(ratio)
