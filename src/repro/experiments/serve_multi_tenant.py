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

from dataclasses import replace
from repro.experiments._serving import (
    METRICS,
    Metric,
    metric_columns,
    metric_row,
    metrics,
    parse_fleet,
    serve_reports,
)
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.request import ScenarioMix
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import MultiTenantStream, TenantSpec
from repro.sim.sweep import SweepEngine

#: Candidate fleets compared by default: one FlexNeRFer (undersized for
#: the ~24 rps merged load) vs. a FlexNeRFer + NeuRex pair.
DEFAULT_FLEETS = ("flexnerfer", "flexnerfer+neurex")

#: What each (fleet, tenant) row reports, read off the tenant's
#: :class:`~repro.serve.report.TenantStats` (which names its counts
#: ``completed`` / ``rejected`` where a whole report says ``*_requests``).
ROW_METRICS = (
    Metric("offered", "offered", ">7", "offered"),
    replace(METRICS["completed"], read="completed"),
    replace(METRICS["rejected"], read="rejected"),
    *metrics("slo_attainment", "p95_latency_ms", "mean_latency_ms"),
)


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
        Column("fleet", "<18"),
        Column("tenant", "<12"),
        *metric_columns(ROW_METRICS),
    ),
)
def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    duration_s: float = 20.0,
    scale: float = 1.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Serve the merged tenant stream on each fleet; one row per tenant."""
    tenants = tenant_roster(scale)
    stream = MultiTenantStream(tenants, duration_s=duration_s)
    requests = stream.generate(seed=seed)
    declared = tuple(t.name for t in tenants)
    variants = [
        ({"fleet": spec}, parse_fleet(spec), FIFOScheduler(), None) for spec in fleets
    ]
    return [
        metric_row({**labels, "tenant": stats.tenant}, stats, ROW_METRICS)
        for labels, report in serve_reports(requests, variants, engine)
        for stats in report.by_tenant(declared)
    ]
