"""`serve-batch-policy`: FIFO vs batch-up-to-deadline scheduling.

At an offered load past a single device's one-at-a-time capacity, plain
FIFO queueing diverges.  The batch-up-to-deadline policy groups
same-scenario requests and dispatches them together, so each additional
frame of a batch only pays the device's marginal cost
(:attr:`~repro.core.device.Device.batch_marginal_latency`); modest batch
bounds pull the p95/p99 tail back by an order of magnitude and cut energy
per request.  ``max_batch=1`` degenerates to FIFO-with-routing, which pins
the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream
from repro.serve.scheduler import BatchDeadlineScheduler, FIFOScheduler, Scheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Batch-size bounds swept by default (on top of the plain FIFO baseline).
DEFAULT_MAX_BATCHES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class PolicyPoint:
    """One scheduling policy's serving summary at the reference load."""

    policy: str
    mean_batch: float
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    goodput_rps: float
    sla_attainment: float
    energy_per_request_mj: float


@experiment(
    "serve-batch-policy",
    title="Scheduling policy: FIFO vs batch-up-to-deadline",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rate_rps": "Poisson arrival rate (requests/s)",
        "duration_s": "stream duration in seconds",
        "max_batches": "batch-size bounds to sweep for the batching policy",
        "max_wait_ms": "longest a request may be held",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(
        Column("policy", "<12"),
        Column("batch", ">6.2f", key="mean_batch"),
        Column("p50 [ms]", ">9.1f", key="p50_latency_ms"),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("p99 [ms]", ">9.1f", key="p99_latency_ms"),
        Column("goodput", ">8.1f", key="goodput_rps"),
        Column("SLA %", ">6.1f", value=lambda p: p.sla_attainment * 100),
        Column("E/req [mJ]", ">11.1f", key="energy_per_request_mj"),
    ),
)
def run(
    device: str = "flexnerfer",
    rate_rps: float = 40.0,
    duration_s: float = 30.0,
    max_batches: tuple[int, ...] = DEFAULT_MAX_BATCHES,
    max_wait_ms: float = 50.0,
    sla_ms: float = 1000.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[PolicyPoint]:
    """Replay one overloaded stream under each policy and summarize."""
    engine = engine or get_default_engine()
    stream = PoissonStream(
        rate_rps=rate_rps,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    requests = stream.generate(seed=seed)

    policies: list[tuple[str, Scheduler]] = [("fifo", FIFOScheduler())]
    policies += [
        (
            f"batch-{bound}",
            BatchDeadlineScheduler(max_batch=bound, max_wait_s=max_wait_ms / 1e3),
        )
        for bound in max_batches
    ]

    points: list[PolicyPoint] = []
    for label, scheduler in policies:
        simulator = FleetSimulator((device,), scheduler=scheduler, engine=engine)
        report = simulator.run(requests)
        points.append(
            PolicyPoint(
                policy=label,
                mean_batch=report.mean_batch_size,
                p50_latency_ms=report.p50_latency_s * 1e3,
                p95_latency_ms=report.p95_latency_s * 1e3,
                p99_latency_ms=report.p99_latency_s * 1e3,
                goodput_rps=report.goodput_rps,
                sla_attainment=report.sla_attainment,
                energy_per_request_mj=report.energy_per_request_j * 1e3,
            )
        )
    return points
