"""Execution traces: per-op records and aggregated frame statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nerf.workload import OpCategory


@dataclass
class OpRecord:
    """Timing and energy of one operation in a frame."""

    name: str
    category: OpCategory
    time_s: float
    energy_j: float
    compute_time_s: float = 0.0
    dram_time_s: float = 0.0
    format_conversion_time_s: float = 0.0
    dram_bytes: float = 0.0
    utilization: float = 1.0


@dataclass
class ExecutionTrace:
    """A frame's worth of op records with aggregation helpers."""

    device: str
    model_name: str
    records: list[OpRecord] = field(default_factory=list)

    def add(self, record: OpRecord) -> None:
        self.records.append(record)

    @property
    def total_time_s(self) -> float:
        return sum(record.time_s for record in self.records)

    @property
    def total_energy_j(self) -> float:
        return sum(record.energy_j for record in self.records)

    def time_by_category(self) -> dict[OpCategory, float]:
        out = {category: 0.0 for category in OpCategory}
        for record in self.records:
            out[record.category] += record.time_s
        return out

    def runtime_breakdown(self) -> dict[OpCategory, float]:
        """Fraction of frame time spent per category (paper Fig. 3)."""
        total = self.total_time_s
        if total <= 0:
            return {category: 0.0 for category in OpCategory}
        return {
            category: time / total for category, time in self.time_by_category().items()
        }

    def time_by_component(self) -> dict[str, float]:
        """Frame time split into compute / DRAM / format conversion (Fig. 18(a))."""
        compute = sum(r.compute_time_s for r in self.records)
        dram = sum(r.dram_time_s for r in self.records)
        conversion = sum(r.format_conversion_time_s for r in self.records)
        other = max(self.total_time_s - compute - dram - conversion, 0.0)
        return {
            "compute": compute,
            "dram": dram,
            "format_conversion": conversion,
            "other": other,
        }
