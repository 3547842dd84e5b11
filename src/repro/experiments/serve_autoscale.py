"""`serve-autoscale`: autoscaler policies vs static pools under diurnal load.

A six-device pool serves a diurnal wave whose peak needs ~3 devices and
whose trough needs less than one.  Static provisioning must choose between
drowning at the peak (one device) and idling at the trough (all six); an
autoscaler (:mod:`repro.serve.control`) grows the active subset into the
wave and drains it back out, paying a provisioning delay on every
scale-out.  The mean-active-workers column is the provisioned capacity the
policy actually consumed -- the cost the SLA was bought at.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import (
    AutoscalePolicy,
    ControlConfig,
    LatencyTargetAutoscaler,
    QueueDepthAutoscaler,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.request import DiurnalStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine, get_default_engine


@dataclass(frozen=True)
class AutoscalePoint:
    """One provisioning policy's outcome on the diurnal wave."""

    policy: str
    num_requests: int
    sla_attainment: float
    p50_latency_ms: float
    p95_latency_ms: float
    peak_workers: int
    mean_workers: float
    goodput_rps: float


@experiment(
    "serve-autoscale",
    title="Autoscaling policies vs static pools under diurnal load",
    tags=("serving",),
    params={
        "device": "device registry name of the pool",
        "pool": "provisioned pool size (devices)",
        "base_rps": "diurnal trough arrival rate",
        "peak_rps": "diurnal peak arrival rate",
        "period_s": "diurnal period",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "provision_delay_ms": "scale-out provisioning delay",
        "target_p95_ms": "latency-target policy's p95 goal",
        "seed": "request stream seed",
    },
    columns=(
        Column("policy", "<15", key="policy"),
        Column("reqs", ">6", key="num_requests"),
        Column("SLA %", ">6.1f", value=lambda p: p.sla_attainment * 100),
        Column("p50 [ms]", ">9.1f", key="p50_latency_ms"),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("peak W", ">7", key="peak_workers"),
        Column("mean W", ">7.2f", key="mean_workers"),
        Column("goodput", ">8.1f", key="goodput_rps"),
    ),
)
def run(
    device: str = "flexnerfer",
    pool: int = 6,
    base_rps: float = 10.0,
    peak_rps: float = 60.0,
    period_s: float = 20.0,
    duration_s: float = 40.0,
    sla_ms: float = 400.0,
    provision_delay_ms: float = 500.0,
    target_p95_ms: float = 200.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[AutoscalePoint]:
    """Serve one diurnal stream under each provisioning policy."""
    engine = engine or get_default_engine()
    stream = DiurnalStream(
        base_rps=base_rps,
        peak_rps=peak_rps,
        period_s=period_s,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    requests = stream.generate(seed=seed)
    autoscalers: tuple[tuple[str, AutoscalePolicy], ...] = (
        (
            "queue-depth",
            QueueDepthAutoscaler(
                scale_out_depth=4, min_workers=1, max_workers=pool
            ),
        ),
        (
            "latency-target",
            LatencyTargetAutoscaler(
                target_p95_s=target_p95_ms / 1e3, min_workers=1, max_workers=pool
            ),
        ),
    )
    points: list[AutoscalePoint] = []
    for size in (1, pool):
        simulator = FleetSimulator(
            (device,) * size, scheduler=FIFOScheduler(), engine=engine
        )
        points.append(_point(f"static-{size}", simulator.run(requests)))
    for name, policy in autoscalers:
        control = ControlConfig(
            autoscaler=policy, provision_delay_s=provision_delay_ms / 1e3
        )
        simulator = FleetSimulator(
            (device,) * pool,
            scheduler=FIFOScheduler(),
            engine=engine,
            control=control,
        )
        points.append(_point(name, simulator.run(requests)))
    return points


def _point(policy: str, report) -> AutoscalePoint:
    """Collapse one :class:`~repro.serve.report.ServingReport` into a row."""
    return AutoscalePoint(
        policy=policy,
        num_requests=report.num_requests,
        sla_attainment=report.sla_attainment,
        p50_latency_ms=report.p50_latency_s * 1e3,
        p95_latency_ms=report.p95_latency_s * 1e3,
        peak_workers=report.peak_active_workers,
        mean_workers=report.mean_active_workers,
        goodput_rps=report.goodput_rps,
    )
