"""`serve-latency-sla`: tail latency and goodput vs offered load.

Sweeps a Poisson arrival rate against one device and reports the latency
distribution users would see (p50/p95/p99), the goodput (requests per second
finishing inside the SLA) and energy per request.  Below saturation the
tail tracks the service time; past it, queueing blows the tail up and
goodput collapses -- the standard serving "knee" the fleet / batching
studies then attack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Arrival rates swept by default (requests per second); the single
#: FlexNeRFer's capacity on the reference mix is ~25 rps.
DEFAULT_RATES = (10.0, 20.0, 30.0)


@dataclass(frozen=True)
class SLAPoint:
    """One offered-load point of the latency / goodput curve."""

    rate_rps: float
    num_requests: int
    p50_latency_ms: float
    p95_latency_ms: float
    p99_latency_ms: float
    goodput_rps: float
    sla_attainment: float
    energy_per_request_mj: float
    utilization: float


@experiment(
    "serve-latency-sla",
    title="Serving tail latency / goodput vs offered load",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rates": "Poisson arrival rates to sweep (requests/s)",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(
        Column("rate", ">6.0f", key="rate_rps"),
        Column("reqs", ">6", key="num_requests"),
        Column("p50 [ms]", ">9.1f", key="p50_latency_ms"),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("p99 [ms]", ">9.1f", key="p99_latency_ms"),
        Column("goodput", ">8.1f", key="goodput_rps"),
        Column("SLA %", ">6.1f", value=lambda p: p.sla_attainment * 100),
        Column("E/req [mJ]", ">11.1f", key="energy_per_request_mj"),
        Column("util %", ">7.1f", value=lambda p: p.utilization * 100),
    ),
)
def run(
    device: str = "flexnerfer",
    rates: tuple[float, ...] = DEFAULT_RATES,
    duration_s: float = 30.0,
    sla_ms: float = 250.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[SLAPoint]:
    """Serve seeded Poisson streams at each rate and summarize the tails."""
    engine = engine or get_default_engine()
    points: list[SLAPoint] = []
    for rate in rates:
        stream = PoissonStream(
            rate_rps=rate,
            duration_s=duration_s,
            mix=REFERENCE_MIX,
            sla_s=sla_ms / 1e3,
        )
        simulator = FleetSimulator(
            (device,), scheduler=FIFOScheduler(), engine=engine
        )
        report = simulator.run(stream.generate(seed=seed))
        points.append(
            SLAPoint(
                rate_rps=rate,
                num_requests=report.num_requests,
                p50_latency_ms=report.p50_latency_s * 1e3,
                p95_latency_ms=report.p95_latency_s * 1e3,
                p99_latency_ms=report.p99_latency_s * 1e3,
                goodput_rps=report.goodput_rps,
                sla_attainment=report.sla_attainment,
                energy_per_request_mj=report.energy_per_request_j * 1e3,
                utilization=report.mean_utilization,
            )
        )
    return points
