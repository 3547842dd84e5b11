"""The bit-scalable MAC array of FlexNeRFer's GEMM/GEMV acceleration unit.

Combines the functional pieces (MAC units + distribution network + reduction
trees) with a 28 nm cost model calibrated against paper Table 3 / Fig. 15:
a 64x64 array occupies ~28.6 mm^2 and consumes ~5.5 / 6.4 / 6.9 W in the
16- / 8- / 4-bit modes at 800 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.distribution import DistributionNetwork
from repro.core.mac_unit import BitScalableMACUnit
from repro.core.reduction import FlexibleReductionTree
from repro.hw.components import DEFAULT_LIBRARY, ComponentLibrary
from repro.hw.cost import AreaReport, PowerReport
from repro.hw.tech import TECH_28NM
from repro.nerf.workload import GEMMOp
from repro.sim.array_config import ArrayConfig
from repro.sim.utilization import effective_mac_utilization
from repro.sparse.formats import Precision
from repro.validate import require_count, require_positive

#: Place-and-route utilisation: composed block area is inflated by this factor
#: to account for routing, clock tree and whitespace.
PNR_AREA_FACTOR = 1.23

#: Average switching-activity factor of the MAC units per precision mode
#: (SAIF-based averages in the paper's flow; lower precision modes toggle more
#: lanes and therefore more capacitance).
MAC_ACTIVITY = {
    Precision.INT16: 0.61,
    Precision.INT8: 0.725,
    Precision.INT4: 0.79,
}

#: Switching activity assumed for the interconnect / reduction / codec blocks.
FABRIC_ACTIVITY = 0.55

#: Intra-MAC-unit HMF-NoC switches (Lv0/Lv1) per MAC unit.
INTRA_UNIT_SWITCHES = 5

#: Flexible format encoder/decoder lanes attached to the array.
FORMAT_CODEC_LANES = 512


@dataclass
class MACArray:
    """A ``rows x cols`` array of bit-scalable MAC units."""

    rows: int = 64
    cols: int = 64
    frequency_hz: float = TECH_28NM.frequency_hz
    library: ComponentLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)

    def __post_init__(self) -> None:
        require_count("array rows", self.rows, 1)
        require_count("array cols", self.cols, 1)
        require_positive("array frequency_hz", self.frequency_hz)
        self.mac_unit = BitScalableMACUnit(optimized_shifters=True, library=self.library)
        self.distribution = DistributionNetwork(self.rows, self.cols)
        self.reduction = FlexibleReductionTree(self.rows * self.cols, library=self.library)

    # -- structural properties -------------------------------------------------

    @property
    def num_mac_units(self) -> int:
        return self.rows * self.cols

    def num_multipliers(self, precision: Precision) -> int:
        """Effective multiplier lanes at ``precision`` (Table 3 row)."""
        return self.num_mac_units * self.mac_unit.lanes(precision)

    def peak_tops(self, precision: Precision) -> float:
        """Peak throughput (tera-operations/s, 2 ops per MAC) at ``precision``."""
        return 2.0 * self.num_multipliers(precision) * self.frequency_hz / 1e12

    def peak_efficiency_tops_per_w(self, precision: Precision) -> float:
        return self.peak_tops(precision) / self.power(precision).total_w

    def effective_efficiency_tops_per_w(
        self, precision: Precision, workload_op: GEMMOp | None = None
    ) -> float:
        """Effective efficiency on a representative sparse irregular GEMM.

        Table 3 reports effective efficiency on the NeRF workload mix; here a
        representative irregular GEMM with 50 % activation sparsity is used
        unless an explicit op is provided.
        """
        op = workload_op or _representative_gemm(precision)
        utilization = effective_mac_utilization(op, self.array_config())
        return self.peak_tops(precision) * utilization / self.power(precision).total_w

    # -- functional GEMM ----------------------------------------------------------

    def gemm(
        self, matrix_a: np.ndarray, matrix_b: np.ndarray, precision: Precision
    ) -> np.ndarray:
        """Compute ``A @ B`` through the dense sparse-mapping path.

        The distribution network packs non-zero products onto MAC slots and
        the flexible reduction accumulates them per output element; the result
        is bit-exact for integer operands within the precision's range.
        """
        plan = self.distribution.map_sparse_gemm(matrix_a, matrix_b)
        result = plan.compute_outputs((matrix_a.shape[0], matrix_b.shape[1]))
        return result

    # -- cost model -----------------------------------------------------------------

    def area(self) -> AreaReport:
        """Area breakdown of the compute array in mm^2 (Table 3 / Fig. 15(a))."""
        lib = self.library
        units_mm2 = self.num_mac_units * self.mac_unit.cost().area_um2 / 1e6
        array_switches = self.distribution.num_switches()
        dn_mm2 = (
            array_switches * lib.area_um2("switch3x3")
            + self.num_mac_units * INTRA_UNIT_SWITCHES * lib.area_um2("switch3x3_small")
            + self.num_mac_units * lib.area_um2("mesh_link")
        ) / 1e6
        rt_mm2 = self.reduction.cost().area_um2 / 1e6
        codec_mm2 = (
            FORMAT_CODEC_LANES * lib.area_um2("format_codec_lane")
            + self.cols * lib.area_um2("popcount64")
            + lib.area_um2("brent_kung32")
        ) / 1e6
        report = AreaReport()
        report.add("mac_units", units_mm2 * PNR_AREA_FACTOR)
        report.add("distribution_network", dn_mm2 * PNR_AREA_FACTOR)
        report.add("reduction_tree", rt_mm2 * PNR_AREA_FACTOR)
        report.add("format_codec", codec_mm2 * PNR_AREA_FACTOR)
        return report

    def power(self, precision: Precision = Precision.INT16) -> PowerReport:
        """Power breakdown in watts at ``precision`` (Table 3 / Fig. 15(b))."""
        lib = self.library
        activity = MAC_ACTIVITY[precision]
        units_w = self.num_mac_units * self.mac_unit.cost().power_mw * activity / 1e3
        array_switches = self.distribution.num_switches()
        dn_w = (
            array_switches * lib.power_mw("switch3x3")
            + self.num_mac_units * INTRA_UNIT_SWITCHES * lib.power_mw("switch3x3_small")
            + self.num_mac_units * lib.power_mw("mesh_link")
        ) * FABRIC_ACTIVITY / 1e3
        rt_w = self.reduction.cost().power_mw * FABRIC_ACTIVITY / 1e3
        codec_w = (
            FORMAT_CODEC_LANES * lib.power_mw("format_codec_lane")
            + self.cols * lib.power_mw("popcount64")
            + lib.power_mw("brent_kung32")
        ) * FABRIC_ACTIVITY / 1e3
        report = PowerReport()
        report.add("mac_units", units_w)
        report.add("distribution_network", dn_w)
        report.add("reduction_tree", rt_w)
        report.add("format_codec", codec_w)
        return report

    # -- simulator hook ----------------------------------------------------------------

    def array_config(self, format_conversion_overhead: float = 0.095) -> ArrayConfig:
        """Array configuration consumed by the cycle model.

        The format-conversion overhead corresponds to the ~8.7 % of total
        execution time spent on encoding/decoding in 16-bit mode (Fig. 18(a)).
        """
        return ArrayConfig(
            name="flexnerfer-mac-array",
            rows=self.rows,
            cols=self.cols,
            frequency_hz=self.frequency_hz,
            base_precision=Precision.INT16,
            bit_scalable=True,
            supports_sparsity=True,
            format_conversion_overhead=format_conversion_overhead,
        )


def _representative_gemm(precision: Precision) -> GEMMOp:
    """Representative sparse irregular NeRF GEMM used for effective efficiency."""
    return GEMMOp(
        name="representative",
        m=4096 * 24,
        n=200,
        k=144,
        weight_sparsity=0.3,
        activation_sparsity=0.5,
        precision=precision,
    )
