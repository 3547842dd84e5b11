"""Serving simulation: request streams, scheduling policies, fleet metrics.

This package extends the repository's frame-level models to the regime the
ROADMAP targets -- heavy request traffic against a fleet of accelerators.
It is a third layer on top of the existing two:

1. *frame layer*: NeRF models build :class:`~repro.nerf.workload.Workload`
   descriptors; :class:`~repro.core.device.Device` models estimate one
   frame's latency / energy;
2. *sweep layer*: :class:`~repro.sim.sweep.SweepEngine` caches frame
   simulations across devices x models x knobs;
3. *serving layer* (this package): :class:`~repro.serve.request.RequestStream`
   generators produce seeded arrival processes over a :class:`ScenarioMix`,
   a :class:`Scheduler` policy assigns queued requests to fleet devices,
   and the :class:`FleetSimulator` event loop turns cached frame reports
   into :class:`~repro.serve.report.ServingReport` metrics (p50/p95/p99
   latency, goodput, energy/request, per-device utilization).

Overload control (:mod:`repro.serve.control`) layers on top: admission
policies reject excess arrivals, a :class:`DegradationLadder` lets the
fleet serve cheaper lower-PSNR frames under load, and autoscaler policies
grow / shrink the active device pool -- see ``docs/serving-control.md``.

Everything is deterministic under a fixed seed; see ``docs/architecture.md``
for the end-to-end data flow.

The package re-exports only the names the README, docs, examples and
benchmark workloads import from it; everything else is imported from its
submodule.  The re-exports are lazy: ``import repro.serve`` loads no
submodule, and the scenario library (:mod:`repro.serve.traffic`) loads
only where a caller imports it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.serve.control": (
            "ControlConfig",
            "DegradationLadder",
            "QueueCapAdmission",
            "QueueDepthAutoscaler",
            "QueueDepthShedder",
            "price_ladder",
        ),
        "repro.serve.fleet": ("FleetSimulator",),
        "repro.serve.request": ("PoissonStream", "Scenario", "ScenarioMix"),
        "repro.serve.scheduler": (
            "BatchDeadlineScheduler",
            "FIFOScheduler",
            "Scheduler",
            "SparsityAwareScheduler",
        ),
    },
)
