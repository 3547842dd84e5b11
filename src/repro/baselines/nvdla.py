"""NVDLA-style channel-parallel engine: MAC utilisation (Fig. 4) and frame model.

NVDLA's convolution engine multiplies a vector of input channels against a
set of kernels each cycle: its MAC grid is organised as (atomic input
channels) x (atomic output kernels).  Utilisation therefore tracks how well
the layer's channel counts cover those atomics, and collapses for GEMM/GEMV
work that offers no channel parallelism.
"""

from __future__ import annotations

from repro.baselines.utilization import UtilizationDevice
from repro.validate import require_count


class NVDLAModel(UtilizationDevice):
    """Channel-parallel engine; full configuration (64x32, 2048 MACs) by default."""

    name = "NVDLA"

    def __init__(
        self,
        atomic_input_channels: int = 64,
        atomic_output_kernels: int = 32,
        frequency_hz: float = 1.0e9,
        typical_power_w: float = 2.5,
    ) -> None:
        """Validate and record the channel geometry and operating point."""
        self.atomic_input_channels = require_count(
            "atomic_input_channels", atomic_input_channels, 1
        )
        self.atomic_output_kernels = require_count(
            "atomic_output_kernels", atomic_output_kernels, 1
        )
        super().__init__(frequency_hz, typical_power_w)

    def _fingerprint_state(self) -> dict:
        """The operating point plus the channel-atomic geometry."""
        return {
            **super()._fingerprint_state(),
            "atomic_input_channels": self.atomic_input_channels,
            "atomic_output_kernels": self.atomic_output_kernels,
        }

    @property
    def num_macs(self) -> int:
        """MAC units in the (input channels x output kernels) grid."""
        return self.atomic_input_channels * self.atomic_output_kernels

    def conv_utilization(self, input_channels: int, output_channels: int) -> float:
        """Utilisation for a convolution layer with the given channel counts."""
        require_count("input_channels", input_channels, 1)
        require_count("output_channels", output_channels, 1)
        in_fill = min(input_channels, self.atomic_input_channels) / self.atomic_input_channels
        out_fill = (
            min(output_channels, self.atomic_output_kernels) / self.atomic_output_kernels
        )
        return in_fill * out_fill

    def gemm_utilization(
        self, m: int, n: int, k: int, density: float = 1.0
    ) -> float:
        """Utilisation for an irregular (possibly sparse) GEMM.

        Mapped as a 1x1 convolution over a single spatial position, the
        engine processes one output-kernel group at a time; an irregular N
        leaves a partially filled tail group, and with only that group in
        flight the rest of the MAC grid idles.  Zeros cannot be skipped by
        the dense scheduler, so sparsity does not change the utilisation
        (it only wastes the work already scheduled).
        """
        for name, dimension in (("m", m), ("n", n), ("k", k)):
            require_count(name, dimension, 1)
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        in_fill = min(k, self.atomic_input_channels) / self.atomic_input_channels
        tail_outputs = n % self.atomic_output_kernels
        out_fill = (
            tail_outputs / self.atomic_output_kernels if tail_outputs else 1.0
        )
        return (in_fill * out_fill) / self.atomic_output_kernels
