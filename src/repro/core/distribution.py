"""Distribution network: dense mapping of sparse irregular GEMMs (Section 4.1).

The distribution network (DN) combines:

* an array-level HMF-NoC (Lv3 over columns, Lv2 per row) that delivers the
  shared operand with broadcast / multicast / unicast dataflows,
* a 1D mesh that delivers the per-MAC unique operand, and
* MAC-unit level HMF-NoCs plus column-level bypass links (CLBs) that replicate
  operand sub-words across sub-multipliers in the higher precision modes.

The central algorithm here is :meth:`DistributionNetwork.map_sparse_gemm`,
which reproduces paper Fig. 5 / Fig. 11: every non-zero product of an
irregular sparse GEMM is assigned to a MAC slot so that the array is filled
densely, and the per-row dataflow (who broadcasts, who multicasts, who
unicasts) falls out of the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.dataflow import DataflowMode, row_dataflows
from repro.noc.hierarchical import HMFNoC
from repro.noc.mesh import Mesh1D
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class ProductAssignment:
    """One non-zero product placed on one MAC slot."""

    mac_row: int
    mac_col: int
    a_index: tuple[int, int]   # (row, col) of the element from matrix 1
    b_index: tuple[int, int]   # (row, col) of the element from matrix 2
    a_value: float
    b_value: float
    output_index: tuple[int, int]

    @property
    def product(self) -> float:
        return self.a_value * self.b_value


@dataclass
class MappingPlan:
    """Dense mapping of one sparse GEMM tile onto the MAC array."""

    array_rows: int
    array_cols: int
    assignments: list[ProductAssignment] = field(default_factory=list)
    num_passes: int = 0

    @property
    def num_products(self) -> int:
        return len(self.assignments)

    @property
    def utilization(self) -> float:
        """Fraction of MAC slots doing useful work across all passes."""
        slots = self.array_rows * self.array_cols * max(self.num_passes, 1)
        return self.num_products / slots if slots else 0.0

    def row_dataflows(self) -> list[DataflowMode]:
        """Dataflow of the shared operand per MAC-array row, first pass."""
        first_pass = self.assignments[: self.array_rows * self.array_cols]
        grid: list[list[object]] = [
            [None] * self.array_cols for _ in range(self.array_rows)
        ]
        for item in first_pass:
            grid[item.mac_row][item.mac_col] = item.a_index
        return row_dataflows(grid)

    def compute_outputs(self, shape: tuple[int, int]) -> np.ndarray:
        """Accumulate the assigned products into the GEMM result matrix."""
        out = np.zeros(shape, dtype=np.float64)
        for item in self.assignments:
            out[item.output_index] += item.product
        return out


class DistributionNetwork:
    """The hierarchical DN of FlexNeRFer's MAC array."""

    def __init__(self, array_rows: int = 64, array_cols: int = 64) -> None:
        if array_rows < 1 or array_cols < 1:
            raise ValueError("array dimensions must be positive")
        self.array_rows = array_rows
        self.array_cols = array_cols
        self.column_noc = HMFNoC(array_cols)        # HMF-NoC (Lv3)
        self.row_nocs = [HMFNoC(array_cols) for _ in range(array_rows)]  # Lv2
        self.row_meshes = [Mesh1D(array_cols) for _ in range(array_rows)]

    # -- dense mapping -----------------------------------------------------------

    def map_sparse_gemm(
        self, matrix_a: np.ndarray, matrix_b: np.ndarray
    ) -> MappingPlan:
        """Densely map the non-zero products of ``A @ B`` onto the array.

        For every non-zero ``A[i, k]`` the non-zero elements of row ``k`` of
        ``B`` produce one product each (Gustavson's row-wise formulation, the
        same order as paper Fig. 5).  Products are packed row-major onto MAC
        slots; when the array is full, a new pass begins.
        """
        matrix_a = np.asarray(matrix_a)
        matrix_b = np.asarray(matrix_b)
        if matrix_a.ndim != 2 or matrix_b.ndim != 2:
            raise ValueError("operands must be 2D matrices")
        if matrix_a.shape[1] != matrix_b.shape[0]:
            raise ValueError(
                f"inner dimensions differ: {matrix_a.shape} @ {matrix_b.shape}"
            )
        plan = MappingPlan(array_rows=self.array_rows, array_cols=self.array_cols)
        slots_per_pass = self.array_rows * self.array_cols
        slot = 0
        a_rows, a_cols = np.nonzero(matrix_a)
        for i, k in zip(a_rows, a_cols):
            b_cols = np.nonzero(matrix_b[k])[0]
            for j in b_cols:
                mac_index = slot % slots_per_pass
                plan.assignments.append(
                    ProductAssignment(
                        mac_row=mac_index // self.array_cols,
                        mac_col=mac_index % self.array_cols,
                        a_index=(int(i), int(k)),
                        b_index=(int(k), int(j)),
                        a_value=float(matrix_a[i, k]),
                        b_value=float(matrix_b[k, j]),
                        output_index=(int(i), int(j)),
                    )
                )
                slot += 1
        plan.num_passes = -(-slot // slots_per_pass) if slot else 0
        return plan

    # -- routing cost ---------------------------------------------------------------

    def distribute(self, plan: MappingPlan) -> dict[str, int]:
        """Route one pass of a mapping plan through the NoCs and count costs."""
        first_pass = plan.assignments[: self.array_rows * self.array_cols]
        buffer_reads = 0
        switch_traversals = 0
        mesh_traversals = 0
        # The shared operand (matrix 1) goes through the HMF-NoC hierarchy.
        grid: list[list[object]] = [
            [None] * self.array_cols for _ in range(self.array_rows)
        ]
        unique_grid: list[list[object]] = [
            [None] * self.array_cols for _ in range(self.array_rows)
        ]
        for item in first_pass:
            grid[item.mac_row][item.mac_col] = item.a_index
            unique_grid[item.mac_row][item.mac_col] = item.b_index
        for row, row_noc in enumerate(self.row_nocs):
            result = row_noc.route(grid[row])
            buffer_reads += result.buffer_reads
            switch_traversals += result.switch_traversals + result.feedback_forwards
        # The unique operand (matrix 2) is unicast over the 1D meshes.
        for row, mesh in enumerate(self.row_meshes):
            delivery = mesh.route(unique_grid[row])
            buffer_reads += delivery.buffer_reads
            mesh_traversals += delivery.link_traversals
        return {
            "buffer_reads": buffer_reads,
            "switch_traversals": switch_traversals,
            "mesh_traversals": mesh_traversals,
        }

    # -- CLB bandwidth model --------------------------------------------------------

    @staticmethod
    def clb_bandwidth_utilization(precision: Precision, with_clb: bool = True) -> float:
        """Input-bandwidth utilisation of a MAC unit (paper Section 4.1.3).

        Bandwidth is provisioned for the 4-bit mode (64 bits per operand per
        cycle).  Without the column-level bypass links the higher precision
        modes only use 16 or 32 of those bits; the CLB's pipelined 16-bit
        links restore full utilisation in every mode.
        """
        if with_clb:
            return 1.0
        # Without the CLB only 16 / 32 / 64 of the provisioned 64 bits are
        # used in 16- / 8- / 4-bit mode respectively.
        return 4.0 / precision.bits

    def num_switches(self) -> int:
        """Total 3x3 switches across the array-level HMF-NoCs."""
        return self.column_noc.num_switches + sum(
            noc.num_switches for noc in self.row_nocs
        )
