"""Technology node constants.

All component areas and powers in :mod:`repro.hw.components` are expressed at
the paper's implementation point (28 nm CMOS, 800 MHz, nominal voltage), which
the :class:`TechnologyNode` dataclass records.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TechnologyNode:
    """A CMOS process/operating point used to express hardware costs."""

    name: str
    feature_nm: float
    frequency_hz: float
    voltage: float = 0.9


#: The implementation point used by the paper for FlexNeRFer and all MAC-array
#: baselines (Table 3): commercial 28 nm CMOS at 800 MHz.
TECH_28NM = TechnologyNode(name="28nm", feature_nm=28.0, frequency_hz=800e6)
