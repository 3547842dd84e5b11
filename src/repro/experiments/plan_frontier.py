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

from dataclasses import replace

from repro.experiments._serving import METRICS, Metric, metric_columns, metric_row
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


#: What each Pareto-optimal candidate reports, read off its
#: :class:`~repro.plan.evaluate.EvaluatedPoint`; the plan tables print
#: latency and energy to two decimals.
FRONTIER_METRICS = (
    Metric("fleet", "fleet", "<24", lambda p: p.point.label),
    Metric("workers", "n", ">2", lambda p: len(p.point.fleet)),
    Metric("scheduler", "scheduler", "<15", lambda p: p.point.scheduler),
    Metric("control", "control", "<12", lambda p: p.point.control),
    METRICS["cost_per_mreq"],
    replace(METRICS["p99_latency_ms"], spec=">9.2f"),
    replace(METRICS["energy_per_request_mj"], spec=">11.2f"),
    METRICS["slo_attainment"],
)


@experiment(
    "plan-frontier",
    title="Fleet plan space: Pareto frontier (cost vs p99 vs energy)",
    tags=("planning",),
    params={"spec": SPEC_HELP},
    columns=metric_columns(FRONTIER_METRICS),
)
def run(
    spec: str = "tiny",
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Evaluate the plan space and tabulate its Pareto frontier."""
    engine = engine or get_default_engine()
    frontier = pareto_frontier(_evaluated_points(spec, engine))
    return [metric_row({}, point, FRONTIER_METRICS) for point in frontier]


#: What the cheapest feasible fleet at each SLA target reports.
CAPACITY_METRICS = tuple(
    metric
    for metric in FRONTIER_METRICS
    if metric.key not in ("workers", "energy_per_request_mj")
)

#: The row of an SLA target no evaluated fleet meets: its cost and p99 do
#: not exist, so they are None (JSON ``null``, shown as ``-``).
INFEASIBLE = {
    "fleet": "(infeasible)",
    "scheduler": "-",
    "control": "-",
    "cost_per_mreq": None,
    "p99_latency_ms": None,
    "slo_attainment": 0.0,
}


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
        *metric_columns(CAPACITY_METRICS),
    ),
)
def run_capacity(
    spec: str = "tiny",
    sla_ladder_ms: tuple[float, ...] = DEFAULT_SLA_LADDER_MS,
    min_attainment: float = DEFAULT_MIN_ATTAINMENT,
    engine: SweepEngine | None = None,
) -> list[dict]:
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
        label = {"sla_ms": sla_ms}
        if solution is None:
            rows.append({**label, **INFEASIBLE})
        else:
            rows.append(metric_row(label, solution, CAPACITY_METRICS))
    return rows
