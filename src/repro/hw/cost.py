"""Area / power report containers with named breakdowns."""

from __future__ import annotations

from dataclasses import dataclass, field


def _merge(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


@dataclass
class AreaReport:
    """Block-level area breakdown in mm^2."""

    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def total_mm2(self) -> float:
        return sum(self.breakdown.values())

    def add(self, name: str, area_mm2: float) -> "AreaReport":
        self.breakdown[name] = self.breakdown.get(name, 0.0) + area_mm2
        return self

    def merged(self, other: "AreaReport") -> "AreaReport":
        return AreaReport(breakdown=_merge(self.breakdown, other.breakdown))

    def scaled(self, factor: float) -> "AreaReport":
        return AreaReport(
            breakdown={k: v * factor for k, v in self.breakdown.items()}
        )

    def fraction(self, name: str) -> float:
        """Fraction of the total contributed by block ``name``."""
        return self.breakdown.get(name, 0.0) / self.total_mm2 if self.total_mm2 else 0.0


@dataclass
class PowerReport:
    """Block-level power breakdown in watts."""

    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def total_w(self) -> float:
        return sum(self.breakdown.values())

    def add(self, name: str, power_w: float) -> "PowerReport":
        self.breakdown[name] = self.breakdown.get(name, 0.0) + power_w
        return self

    def merged(self, other: "PowerReport") -> "PowerReport":
        return PowerReport(breakdown=_merge(self.breakdown, other.breakdown))

    def scaled(self, factor: float) -> "PowerReport":
        return PowerReport(
            breakdown={k: v * factor for k, v in self.breakdown.items()}
        )

    def fraction(self, name: str) -> float:
        return self.breakdown.get(name, 0.0) / self.total_w if self.total_w else 0.0

