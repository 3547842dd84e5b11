"""`serve-multi-tenant`: per-tenant SLO attainment on shared fleets.

Three tenants with very different contracts share one fleet: an
*interactive* tenant rendering the full-quality hero scenario under a
tight SLA, a *batch* tenant rendering dense TensoRF frames with a relaxed
SLA, and a *free* tier on the pruned low-precision scenario in between.
The question a capacity planner actually faces is not "what is the
fleet-wide attainment" but "which tenant's contract breaks first when the
fleet is undersized" -- so this study serves the merged
:class:`~repro.serve.traffic.MultiTenantStream` on each candidate fleet
and reports one row per (fleet, tenant) via
:meth:`~repro.serve.report.ServingReport.by_tenant`, the per-tenant
attainment breakdown this PR adds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments._serving import parse_fleet
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.fleet import FleetSimulator
from repro.serve.request import ScenarioMix
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import MultiTenantStream, TenantSpec
from repro.sim.sweep import SweepEngine, get_default_engine

#: Candidate fleets compared by default: one FlexNeRFer (undersized for
#: the ~24 rps merged load) vs. a FlexNeRFer + NeuRex pair.
DEFAULT_FLEETS = ("flexnerfer", "flexnerfer+neurex")


def tenant_roster(scale: float) -> tuple[TenantSpec, ...]:
    """The study's three tenants, with every rate scaled by ``scale``."""
    hero, pruned, dense = REFERENCE_MIX.scenarios
    return (
        TenantSpec(
            "interactive", 10.0 * scale, ScenarioMix((hero,)), sla_s=0.15
        ),
        TenantSpec("batch", 8.0 * scale, ScenarioMix((dense,)), sla_s=1.0),
        TenantSpec("free", 6.0 * scale, ScenarioMix((pruned,)), sla_s=0.4),
    )


@dataclass(frozen=True)
class TenantPoint:
    """One (fleet, tenant) row of the multi-tenant study."""

    fleet: str
    tenant: str
    offered: int
    completed: int
    rejected: int
    slo_attainment: float
    p95_latency_ms: float
    mean_latency_ms: float


@experiment(
    "serve-multi-tenant",
    title="Per-tenant SLO attainment on shared candidate fleets",
    tags=("serving",),
    params={
        "fleets": "candidate fleets, each a +-separated device list",
        "duration_s": "stream duration in seconds",
        "scale": "multiplier on every tenant's rate",
        "seed": "request stream seed",
    },
    columns=(
        Column("fleet", "<18", key="fleet"),
        Column("tenant", "<12", key="tenant"),
        Column("offered", ">7", key="offered"),
        Column("done", ">6", key="completed"),
        Column("rej", ">5", key="rejected"),
        Column("SLO %", ">6.1f", value=lambda p: p.slo_attainment * 100),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("mean [ms]", ">10.1f", key="mean_latency_ms"),
    ),
)
def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    duration_s: float = 20.0,
    scale: float = 1.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[TenantPoint]:
    """Serve the merged tenant stream on each fleet; one row per tenant."""
    engine = engine or get_default_engine()
    tenants = tenant_roster(scale)
    stream = MultiTenantStream(tenants, duration_s=duration_s)
    requests = stream.generate(seed=seed)
    declared = tuple(t.name for t in tenants)
    points: list[TenantPoint] = []
    for fleet_spec in fleets:
        simulator = FleetSimulator(
            parse_fleet(fleet_spec),
            scheduler=FIFOScheduler(),
            engine=engine,
        )
        report = simulator.run(requests)
        for stats in report.by_tenant(declared):
            points.append(
                TenantPoint(
                    fleet=fleet_spec,
                    tenant=stats.tenant,
                    offered=stats.offered,
                    completed=stats.completed,
                    rejected=stats.rejected,
                    slo_attainment=stats.slo_attainment,
                    p95_latency_ms=stats.p95_latency_s * 1e3,
                    mean_latency_ms=stats.mean_latency_s * 1e3,
                )
            )
    return points
