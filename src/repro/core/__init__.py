"""FlexNeRFer core: the paper's primary contribution.

* :mod:`repro.core.mac_unit` / :mod:`repro.core.mac_array` -- the
  precision-scalable (bit-fusion style) MAC unit and the 64x64 MAC array
  built from it, with both functional (bit-exact) behaviour and 28 nm
  area/power cost models.
* :mod:`repro.core.reduction` -- the shifter-optimised intra-unit reduction
  tree and the flexible augmented reduction tree at the array level.
* :mod:`repro.core.distribution` -- the hierarchical distribution network
  (HMF-NoC + 1D mesh + column-level bypass links) and the dense mapping of
  sparse irregular GEMMs onto the array.
* :mod:`repro.core.compression` -- online sparsity-aware data compression
  (sparsity-ratio calculator + flexible format encoder/decoder).
* :mod:`repro.core.encoding_unit` -- the NeRF encoding unit (positional and
  hash encoding engines).
* :mod:`repro.core.controller` -- RISC-V controller and DMA engine models.
* :mod:`repro.core.accelerator` -- the full accelerator: hardware cost
  reports and frame-level performance/energy estimation.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.accelerator": ("FlexNeRFer",),
        "repro.core.config": ("FlexNeRFerConfig",),
    },
)
