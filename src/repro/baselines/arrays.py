"""GEMM/GEMV compute-array baselines of paper Table 3.

Three baselines are compared against FlexNeRFer's MAC array:

* **SIGMA** -- a sparse, irregular GEMM array with a Benes distribution
  network and a forwarding adder network; INT16 only (no bit-scalability).
* **Bit Fusion** -- a bit-scalable (INT4/8/16) MAC array without sparsity
  support and with the unoptimised shifter-based reduction tree.
* **Bit-scalable SIGMA** -- Bit Fusion's MAC array behind SIGMA's flexible
  NoC: both sparsity and bit-scalability, but a larger, more power-hungry
  interconnect whose port width limits INT4 throughput.

Area is composed from the same 28 nm component library used for FlexNeRFer;
power is taken from the published Table 3 values (the baselines' switching
activity is not otherwise reproducible).  Peak efficiency is peak TOPS over
power; effective efficiency applies the utilisation model on the
representative sparse irregular NeRF GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mac_array import PNR_AREA_FACTOR, _representative_gemm
from repro.core.mac_unit import BitScalableMACUnit
from repro.hw.components import DEFAULT_LIBRARY, ComponentLibrary
from repro.hw.cost import AreaReport
from repro.nerf.workload import GEMMOp
from repro.noc.benes import BenesNetwork
from repro.sim.array_config import ArrayConfig
from repro.sim.utilization import effective_mac_utilization
from repro.sparse.formats import Precision


@dataclass
class ArraySpecRow:
    """One row of the Table 3 comparison."""

    name: str
    bit_flexible: bool
    supports_sparsity: bool
    precisions: tuple[Precision, ...]
    area_mm2: float
    power_w: dict[Precision, float]
    peak_tops: dict[Precision, float]
    peak_efficiency: dict[Precision, float]
    effective_efficiency: dict[Precision, float]
    num_multipliers: dict[Precision, int]


class _BaseArray:
    """Shared helpers for the Table 3 baseline arrays."""

    name = "base"
    rows = 64
    cols = 64
    frequency_hz = 800e6
    bit_flexible = False
    supports_sparsity = False
    #: Published power per precision mode (Table 3).
    published_power_w: dict[Precision, float] = {}
    #: Fraction of peak throughput reachable per precision (interconnect
    #: bandwidth limits; 1.0 unless stated otherwise).
    peak_throughput_factor: dict[Precision, float] = {}

    def __init__(self, library: ComponentLibrary = DEFAULT_LIBRARY) -> None:
        self.library = library

    # -- structure ------------------------------------------------------------

    def supported_precisions(self) -> tuple[Precision, ...]:
        if self.bit_flexible:
            return (Precision.INT4, Precision.INT8, Precision.INT16)
        return (Precision.INT16,)

    def num_multipliers(self, precision: Precision) -> int:
        if not self.bit_flexible:
            return self.rows * self.cols
        lanes = BitScalableMACUnit.lanes(precision)
        return self.rows * self.cols * lanes

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(
            name=self.name,
            rows=self.rows,
            cols=self.cols,
            frequency_hz=self.frequency_hz,
            base_precision=Precision.INT16,
            bit_scalable=self.bit_flexible,
            supports_sparsity=self.supports_sparsity,
        )

    # -- metrics ----------------------------------------------------------------

    def power_w(self, precision: Precision) -> float:
        return self.published_power_w[precision]

    def peak_tops(self, precision: Precision) -> float:
        factor = self.peak_throughput_factor.get(precision, 1.0)
        return (
            2.0 * self.num_multipliers(precision) * self.frequency_hz / 1e12 * factor
        )

    def peak_efficiency(self, precision: Precision) -> float:
        return self.peak_tops(precision) / self.power_w(precision)

    def effective_efficiency(
        self, precision: Precision, op: GEMMOp | None = None
    ) -> float:
        op = op or _representative_gemm(precision)
        utilization = effective_mac_utilization(op, self.array_config())
        return self.peak_efficiency(precision) * utilization

    def area(self) -> AreaReport:  # pragma: no cover - overridden
        raise NotImplementedError

    def spec_row(self) -> ArraySpecRow:
        precisions = self.supported_precisions()
        return ArraySpecRow(
            name=self.name,
            bit_flexible=self.bit_flexible,
            supports_sparsity=self.supports_sparsity,
            precisions=precisions,
            area_mm2=self.area().total_mm2,
            power_w={p: self.power_w(p) for p in precisions},
            peak_tops={p: self.peak_tops(p) for p in precisions},
            peak_efficiency={p: self.peak_efficiency(p) for p in precisions},
            effective_efficiency={p: self.effective_efficiency(p) for p in precisions},
            num_multipliers={p: self.num_multipliers(p) for p in precisions},
        )


class SigmaArray(_BaseArray):
    """SIGMA: sparse irregular GEMM array, INT16 only."""

    name = "SIGMA"
    bit_flexible = False
    supports_sparsity = True
    published_power_w = {Precision.INT16: 5.8}

    def area(self) -> AreaReport:
        lib = self.library
        num_pes = self.rows * self.cols
        benes = BenesNetwork(num_pes)
        report = AreaReport()
        report.add(
            "mac_units", num_pes * lib.area_um2("mac_int16_dense") / 1e6 * PNR_AREA_FACTOR
        )
        report.add(
            "benes_network",
            benes.num_switches * lib.area_um2("benes_node") / 1e6 * PNR_AREA_FACTOR,
        )
        report.add(
            "forwarding_adder_network",
            (num_pes - 1) * lib.area_um2("flex_adder_node") / 1e6 * PNR_AREA_FACTOR,
        )
        report.add(
            "local_registers",
            num_pes * 4 * lib.area_um2("accum_reg32") / 1e6 * PNR_AREA_FACTOR,
        )
        return report


class BitFusionArray(_BaseArray):
    """Bit Fusion: bit-scalable MAC array without sparsity support."""

    name = "Bit Fusion"
    bit_flexible = True
    supports_sparsity = False
    published_power_w = {
        Precision.INT4: 5.8,
        Precision.INT8: 5.3,
        Precision.INT16: 4.8,
    }

    def area(self) -> AreaReport:
        num_units = self.rows * self.cols
        unit = BitScalableMACUnit(optimized_shifters=False, library=self.library)
        report = AreaReport()
        report.add(
            "mac_units", num_units * unit.cost().area_um2 / 1e6 * PNR_AREA_FACTOR
        )
        report.add(
            "broadcast_network",
            num_units * self.library.area_um2("mesh_link") / 1e6 * PNR_AREA_FACTOR,
        )
        report.add(
            "accumulators",
            num_units * 2 * self.library.area_um2("accum_reg32") / 1e6 * PNR_AREA_FACTOR,
        )
        return report


class BitScalableSigmaArray(_BaseArray):
    """Bit Fusion's MAC array behind SIGMA's flexible interconnect."""

    name = "Bit-Scalable SIGMA"
    bit_flexible = True
    supports_sparsity = True
    published_power_w = {
        Precision.INT4: 9.3,
        Precision.INT8: 8.7,
        Precision.INT16: 8.2,
    }
    #: The Benes network's port width is provisioned for 16-bit operands, so
    #: in INT4 mode it can feed only half of the multiplier lanes per cycle
    #: (no column-level bypass links).
    peak_throughput_factor = {Precision.INT4: 0.5}

    def area(self) -> AreaReport:
        lib = self.library
        num_units = self.rows * self.cols
        unit = BitScalableMACUnit(optimized_shifters=False, library=lib)
        benes = BenesNetwork(num_units)
        report = AreaReport()
        report.add(
            "mac_units", num_units * unit.cost().area_um2 / 1e6 * PNR_AREA_FACTOR
        )
        report.add(
            "benes_network",
            benes.num_switches * lib.area_um2("benes_node") / 1e6 * PNR_AREA_FACTOR,
        )
        report.add(
            "forwarding_adder_network",
            (num_units - 1) * lib.area_um2("flex_adder_node") / 1e6 * PNR_AREA_FACTOR,
        )
        report.add(
            "local_registers",
            num_units * 4 * lib.area_um2("accum_reg32") / 1e6 * PNR_AREA_FACTOR,
        )
        return report


#: The baselines of Table 3 in paper order.
TABLE3_BASELINES = (SigmaArray, BitFusionArray, BitScalableSigmaArray)
