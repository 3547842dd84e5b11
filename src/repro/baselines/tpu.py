"""TPU-style weight-stationary systolic array: MAC utilisation (Fig. 4) and frame model.

A weight-stationary systolic array pins the weight tile onto its K x N grid
and streams activations through it.  Utilisation is limited by how well the
layer's K and N dimensions fill the grid, by how many activation rows (M)
stream through relative to the pipeline depth, and -- for sparse operands --
by the fraction of scheduled products that are actually non-zero (the array
cannot skip zeros).
"""

from __future__ import annotations

from repro.baselines.utilization import UtilizationDevice
from repro.validate import require_count


class TPUModel(UtilizationDevice):
    """Edge-TPU-style systolic array; a 64x64 grid at 700 MHz by default."""

    name = "TPU"

    def __init__(
        self,
        rows: int = 64,
        cols: int = 64,
        frequency_hz: float = 700e6,
        typical_power_w: float = 2.0,
    ) -> None:
        """Validate the grid (``rows`` = K, ``cols`` = N) and operating point."""
        self.rows = require_count("rows", rows, 1)
        self.cols = require_count("cols", cols, 1)
        super().__init__(frequency_hz, typical_power_w)

    def _fingerprint_state(self) -> dict:
        """The operating point plus the systolic grid geometry."""
        return {**super()._fingerprint_state(), "rows": self.rows, "cols": self.cols}

    @property
    def num_macs(self) -> int:
        """MAC units in the (rows x cols) grid."""
        return self.rows * self.cols

    def gemm_utilization(
        self, m: int, n: int, k: int, density: float = 1.0
    ) -> float:
        """Utilisation of a (possibly sparse) GEMM of shape (M, N, K)."""
        for name, dimension in (("m", m), ("n", n), ("k", k)):
            require_count(name, dimension, 1)
        if not 0.0 < density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        k_fill = min(k, self.rows) / self.rows
        n_fill = min(n, self.cols) / self.cols
        m_fill = min(m, self.rows) / self.rows
        return k_fill * n_fill * m_fill * density

    def conv_utilization(
        self,
        input_channels: int,
        output_channels: int,
        spatial_positions: int,
        density: float = 1.0,
    ) -> float:
        """Utilisation of a convolution lowered to GEMM (im2col).

        K is the input-channel (x kernel window) depth, N the output channels
        and M the number of output spatial positions streaming through.
        """
        return self.gemm_utilization(
            m=spatial_positions, n=output_channels, k=input_channels, density=density
        )
