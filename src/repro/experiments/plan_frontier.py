"""`plan-frontier` / `plan-capacity`: the capacity planner's paper-style tables.

``plan-frontier`` evaluates every candidate of a built-in plan space
(:data:`repro.plan.PLAN_SPECS`) and tabulates its Pareto frontier over
(cost/request, p99 latency, energy/request) -- the fleet design points no
other candidate beats on every axis.  ``plan-capacity`` asks the planner's
constraint question across a ladder of SLA targets: for each target, the
cheapest evaluated fleet whose p99 holds under it at the required SLO
attainment.  Both ride the same evaluations (cached in the store's plan
tier), so the pair costs one space evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.plan.evaluate import EvaluatedPoint, evaluate_space
from repro.plan.pareto import cheapest_feasible, pareto_frontier
from repro.plan.space import PLAN_SPECS, load_space
from repro.sim.sweep import SweepEngine, get_default_engine
from repro.validate import require_positive

#: SLA targets (milliseconds) the capacity table sweeps by default.
DEFAULT_SLA_LADDER_MS = (15.0, 25.0, 50.0, 120.0)

#: Attainment floor the capacity table requires at every SLA target.
DEFAULT_MIN_ATTAINMENT = 0.95

#: Help text of the ``spec`` parameter both planning experiments take.
SPEC_HELP = f"plan space to search: {', '.join(sorted(PLAN_SPECS))} or a JSON spec file"


def _evaluated_points(
    spec: str, engine: SweepEngine
) -> tuple[EvaluatedPoint, ...]:
    """Evaluate ``spec``'s full space on the shared engine (store-cached)."""
    space = load_space(spec)
    return evaluate_space(space, engine=engine).points


@dataclass(frozen=True)
class FrontierPoint:
    """One Pareto-optimal fleet candidate of the plan space."""

    fleet: str
    workers: int
    scheduler: str
    control: str
    cost_per_mreq: float
    p99_latency_ms: float
    energy_per_request_mj: float
    slo_attainment: float


@experiment(
    "plan-frontier",
    title="Fleet plan space: Pareto frontier (cost vs p99 vs energy)",
    tags=("planning",),
    params={"spec": SPEC_HELP},
    columns=(
        Column("fleet", "<24"),
        Column("n", ">2", key="workers"),
        Column("scheduler", "<15"),
        Column("control", "<12"),
        Column("$/Mreq", ">10.4f", key="cost_per_mreq"),
        Column("p99 [ms]", ">9.2f", key="p99_latency_ms"),
        Column("E/req [mJ]", ">11.2f", key="energy_per_request_mj"),
        Column("SLO %", ">6.1f", value=lambda p: p.slo_attainment * 100),
    ),
)
def run(
    spec: str = "tiny",
    engine: SweepEngine | None = None,
) -> list[FrontierPoint]:
    """Evaluate the plan space and tabulate its Pareto frontier."""
    engine = engine or get_default_engine()
    frontier = pareto_frontier(_evaluated_points(spec, engine))
    return [
        FrontierPoint(
            fleet=point.point.label,
            workers=len(point.point.fleet),
            scheduler=point.point.scheduler,
            control=point.point.control,
            cost_per_mreq=point.cost_per_request * 1e6,
            p99_latency_ms=point.p99_latency_s * 1e3,
            energy_per_request_mj=point.energy_per_request_j * 1e3,
            slo_attainment=point.slo_attainment,
        )
        for point in frontier
    ]


@dataclass(frozen=True)
class CapacityPoint:
    """The cheapest feasible fleet at one SLA target (or none)."""

    sla_ms: float
    fleet: str
    scheduler: str
    control: str
    cost_per_mreq: float
    p99_latency_ms: float
    slo_attainment: float


@experiment(
    "plan-capacity",
    title="Capacity ladder: cheapest feasible fleet per SLA target",
    tags=("planning",),
    params={
        "spec": SPEC_HELP,
        "sla_ladder_ms": "SLA targets (ms) to solve the capacity question at",
        "min_attainment": "required SLO attainment over offered load, in [0, 1]",
    },
    columns=(
        Column("SLA [ms]", ">8.1f", key="sla_ms"),
        Column("fleet", "<24"),
        Column("scheduler", "<15"),
        Column("control", "<12"),
        Column("$/Mreq", ">10.4f", key="cost_per_mreq"),
        Column("p99 [ms]", ">9.2f", key="p99_latency_ms"),
        Column("SLO %", ">6.1f", value=lambda p: p.slo_attainment * 100),
    ),
)
def run_capacity(
    spec: str = "tiny",
    sla_ladder_ms: tuple[float, ...] = DEFAULT_SLA_LADDER_MS,
    min_attainment: float = DEFAULT_MIN_ATTAINMENT,
    engine: SweepEngine | None = None,
) -> list[CapacityPoint]:
    """Solve the cheapest-feasible-fleet question at each SLA target."""
    if not 0.0 <= min_attainment <= 1.0:
        raise ValueError(f"min_attainment must be in [0, 1], got {min_attainment}")
    for sla_ms in sla_ladder_ms:
        require_positive("sla_ladder_ms", sla_ms)
    engine = engine or get_default_engine()
    points = _evaluated_points(spec, engine)
    rows = []
    for sla_ms in sla_ladder_ms:
        solution = cheapest_feasible(
            points, max_p99_s=sla_ms / 1000.0, min_attainment=min_attainment
        )
        if solution is None:
            rows.append(
                CapacityPoint(
                    sla_ms=sla_ms,
                    fleet="(infeasible)",
                    scheduler="-",
                    control="-",
                    cost_per_mreq=float("nan"),
                    p99_latency_ms=float("nan"),
                    slo_attainment=0.0,
                )
            )
            continue
        rows.append(
            CapacityPoint(
                sla_ms=sla_ms,
                fleet=solution.point.label,
                scheduler=solution.point.scheduler,
                control=solution.point.control,
                cost_per_mreq=solution.cost_per_request * 1e6,
                p99_latency_ms=solution.p99_latency_s * 1e3,
                slo_attainment=solution.slo_attainment,
            )
        )
    return rows
