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

from repro.experiments._serving import metric_columns, metrics, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import (
    ControlConfig,
    LatencyTargetAutoscaler,
    QueueDepthAutoscaler,
)
from repro.serve.request import DiurnalStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine

#: What each provisioning policy reports on the diurnal wave.
ROW_METRICS = metrics(
    "num_requests", "sla_attainment", "p50_latency_ms", "p95_latency_ms",
    "peak_workers", "mean_workers", "goodput_rps",
)


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
    columns=(Column("policy", "<15"), *metric_columns(ROW_METRICS)),
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
) -> list[dict]:
    """Serve one diurnal stream under each provisioning policy."""
    stream = DiurnalStream(
        base_rps=base_rps,
        peak_rps=peak_rps,
        period_s=period_s,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    autoscalers = (
        (
            "queue-depth",
            QueueDepthAutoscaler(scale_out_depth=4, min_workers=1, max_workers=pool),
        ),
        (
            "latency-target",
            LatencyTargetAutoscaler(
                target_p95_s=target_p95_ms / 1e3, min_workers=1, max_workers=pool
            ),
        ),
    )
    delay_s = provision_delay_ms / 1e3
    static = [
        ({"policy": f"static-{size}"}, (device,) * size, FIFOScheduler(), None)
        for size in sorted({1, pool})
    ]
    scaled = [
        (
            {"policy": name},
            (device,) * pool,
            FIFOScheduler(),
            ControlConfig(autoscaler=policy, provision_delay_s=delay_s),
        )
        for name, policy in autoscalers
    ]
    requests = stream.generate(seed=seed)
    return serve_rows(requests, [*static, *scaled], ROW_METRICS, engine)
