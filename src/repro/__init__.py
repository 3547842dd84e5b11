"""FlexNeRFer reproduction: a multi-dataflow, adaptive sparsity-aware
accelerator model for on-device NeRF rendering (ISCA 2025).

Public API overview
-------------------

* :class:`repro.core.accelerator.FlexNeRFer` -- the accelerator model
  (area/power reports and frame-level latency/energy estimation).
* :mod:`repro.nerf` -- the NeRF substrate: functional renderers and the seven
  per-model workload descriptors.
* :mod:`repro.baselines` -- the GPU, NeuRex and compute-array baselines.
* :mod:`repro.sparse`, :mod:`repro.quant`, :mod:`repro.noc`, :mod:`repro.hw`,
  :mod:`repro.sim` -- the substrates (sparse formats, quantization, NoCs,
  hardware cost models, performance simulation).
* :mod:`repro.core.device` -- the unified :class:`Device` protocol and the
  ``DEVICE_REGISTRY`` covering FlexNeRFer and every baseline device
  (``repro.get_device(name)`` builds one).
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

The package re-exports ``get_device``, ``SweepEngine``, ``SweepSpec`` and
``Precision`` lazily: ``import repro`` loads none of the subsystems, and
each name imports its module on first use.
"""

from repro._lazy import lazy_exports

__version__ = "1.7.0"

_exports, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.core.device": ("get_device",),
        "repro.sim.sweep": ("SweepEngine", "SweepSpec"),
        "repro.sparse.formats": ("Precision",),
    },
)
__all__ = [*_exports, "__version__"]
