"""Baseline devices the paper compares against.

* :mod:`repro.baselines.gpu` -- roofline models of the NVIDIA RTX 2080 Ti and
  Jetson Xavier NX (Fig. 1, Fig. 3, Fig. 19, Fig. 20);
* :mod:`repro.baselines.neurex` -- the NeuRex NeRF accelerator (ISCA 2023),
  the state-of-the-art accelerator baseline (Fig. 16 - Fig. 19);
* :mod:`repro.baselines.arrays` -- the GEMM/GEMV compute-array baselines of
  Table 3: SIGMA, Bit Fusion and bit-scalable SIGMA;
* :mod:`repro.baselines.nvdla` / :mod:`repro.baselines.tpu` -- the two
  commercial accelerators of Fig. 4, one class each holding the
  MAC-utilisation model and the frame model on it
  (:mod:`repro.baselines.utilization`).

NeuRex, the GPUs, NVDLA and the TPU are one :class:`repro.core.device.Device`
subclass each, whose only cost hooks are ``area()`` / ``power()``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.baselines.nvdla": ("NVDLAModel",),
        "repro.baselines.tpu": ("TPUModel",),
    },
)
