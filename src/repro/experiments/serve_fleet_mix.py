"""`serve-fleet-mix`: heterogeneous fleet compositions under diurnal load.

Serves one bursty (sinusoidally modulated) request stream against several
fleet compositions with the sparsity-aware router, which sends each request
to the idle device that serves its scenario fastest.  Two FlexNeRFers ride
the burst comfortably; fleets that substitute dense INT16 NeuRex chips lose
tail latency and goodput at the peak, but the mixed fleet recovers most of
the gap because the router steers pruned / low-precision scenarios onto the
FlexNeRFer where they are disproportionately cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments._serving import parse_fleet
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.fleet import FleetSimulator
from repro.serve.request import DiurnalStream
from repro.serve.scheduler import SparsityAwareScheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Fleet compositions compared by default (``+`` separates fleet members).
DEFAULT_FLEETS = (
    "flexnerfer+flexnerfer",
    "flexnerfer+neurex",
    "neurex+neurex",
)


@dataclass(frozen=True)
class FleetPoint:
    """One fleet composition's serving summary under the diurnal stream."""

    fleet: str
    num_requests: int
    p50_latency_ms: float
    p95_latency_ms: float
    goodput_rps: float
    sla_attainment: float
    energy_per_request_mj: float
    utilization: float


@experiment(
    "serve-fleet-mix",
    title="Fleet compositions under diurnal load (sparsity-aware routing)",
    tags=("serving",),
    params={
        "fleets": "fleet compositions to compare, e.g. flexnerfer+neurex",
        "base_rps": "trough arrival rate (requests/s)",
        "peak_rps": "peak arrival rate (requests/s)",
        "period_s": "burst cycle period",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(
        Column("fleet", "<24"),
        Column("p50 [ms]", ">9.1f", key="p50_latency_ms"),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("goodput", ">8.1f", key="goodput_rps"),
        Column("SLA %", ">6.1f", value=lambda p: p.sla_attainment * 100),
        Column("E/req [mJ]", ">11.1f", key="energy_per_request_mj"),
        Column("util %", ">7.1f", value=lambda p: p.utilization * 100),
    ),
)
def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    base_rps: float = 5.0,
    peak_rps: float = 30.0,
    period_s: float = 20.0,
    duration_s: float = 40.0,
    sla_ms: float = 300.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[FleetPoint]:
    """Replay one diurnal stream against each fleet and summarize."""
    engine = engine or get_default_engine()
    stream = DiurnalStream(
        base_rps=base_rps,
        peak_rps=peak_rps,
        period_s=period_s,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    points: list[FleetPoint] = []
    for fleet_spec in fleets:
        simulator = FleetSimulator(
            parse_fleet(fleet_spec),
            scheduler=SparsityAwareScheduler(),
            engine=engine,
        )
        report = simulator.run(stream.generate(seed=seed))
        points.append(
            FleetPoint(
                fleet=fleet_spec,
                num_requests=report.num_requests,
                p50_latency_ms=report.p50_latency_s * 1e3,
                p95_latency_ms=report.p95_latency_s * 1e3,
                goodput_rps=report.goodput_rps,
                sla_attainment=report.sla_attainment,
                energy_per_request_mj=report.energy_per_request_j * 1e3,
                utilization=report.mean_utilization,
            )
        )
    return points
