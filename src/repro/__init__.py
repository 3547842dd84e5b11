"""FlexNeRFer reproduction: a multi-dataflow, adaptive sparsity-aware
accelerator model for on-device NeRF rendering (ISCA 2025).

Public API overview
-------------------

* :class:`repro.FlexNeRFer` -- the accelerator model (area/power reports and
  frame-level latency/energy estimation).
* :mod:`repro.nerf` -- the NeRF substrate: functional renderers and the seven
  per-model workload descriptors.
* :mod:`repro.baselines` -- the GPU, NeuRex and compute-array baselines.
* :mod:`repro.sparse`, :mod:`repro.quant`, :mod:`repro.noc`, :mod:`repro.hw`,
  :mod:`repro.sim` -- the substrates (sparse formats, quantization, NoCs,
  hardware cost models, performance simulation).
* :mod:`repro.core.device` -- the unified :class:`Device` protocol and the
  ``DEVICE_REGISTRY`` covering FlexNeRFer and every baseline device.
* :mod:`repro.sim.sweep` -- the cached :class:`SweepEngine` that runs
  device x model x precision x pruning x batch sweeps for the experiments.
* :mod:`repro.serve` -- the serving layer: request streams, scheduling
  policies, the :class:`~repro.serve.fleet.FleetSimulator` event loop and
  fleet-level :class:`~repro.serve.report.ServingReport` metrics.
* :mod:`repro.perf` -- the persistent content-addressed result store the
  sweep engine reads through, and the ``repro bench`` measurement harness
  (``BENCH_<rev>.json`` trajectory points).
* :mod:`repro.experiments` -- one module per paper table/figure plus the
  ``serve-*`` serving studies.
"""

from repro.core import FlexNeRFer, FlexNeRFerConfig, FrameReport, MACArray
from repro.core.device import DEVICE_REGISTRY, Device, get_device
from repro.sim.sweep import SweepEngine, SweepSpec, get_default_engine
from repro.sparse.formats import Precision, SparsityFormat

__version__ = "1.7.0"

__all__ = [
    "FlexNeRFer",
    "FlexNeRFerConfig",
    "FrameReport",
    "MACArray",
    "Device",
    "DEVICE_REGISTRY",
    "get_device",
    "SweepEngine",
    "SweepSpec",
    "get_default_engine",
    "Precision",
    "SparsityFormat",
    "__version__",
]
