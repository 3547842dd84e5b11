"""The input guards for numeric knobs: positive reals, non-negative reals, counts.

A plain ``value <= 0`` or ``value < 1`` test lets NaN through (every
comparison with NaN is false), and a count test lets infinity, 2.5 and
``True`` through.  These guards reject all of them with a one-line
:class:`ValueError` naming the input.  The module imports nothing from
:mod:`repro`, so any layer can use it.
"""

from __future__ import annotations

import math
import operator


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number above zero.

    A NaN rate or an infinite horizon makes a stream's ``generate`` loop
    forever, and a NaN clock puts NaN in every frame time.
    """
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number no smaller than zero.

    A NaN table size makes an op's DRAM traffic NaN, and an infinite one
    never finishes streaming.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def require_count(name: str, value: int, low: int) -> int:
    """Return ``value`` as an ``int`` if it is an integer no smaller than ``low``.

    Any integer type is accepted (``operator.index``) except ``bool``; a NaN
    worker floor hangs an autoscaled run, and a 2.5-row array has no tiling.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low:
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
    return count
