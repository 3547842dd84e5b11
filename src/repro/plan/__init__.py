"""Fleet capacity planning: Pareto search over the serving design space.

This package answers the ROADMAP's capacity question -- "what is the
cheapest fleet that holds p99 under the SLA at this traffic?" -- by
searching over (device mix, worker count, scheduler, overload-control
variant) one level above the accelerator design-space sweeps:

* :mod:`repro.plan.space` -- declarative :class:`PlanSpace` definitions
  with deterministic enumeration and content-addressed plan-point keys;
* :mod:`repro.plan.evaluate` -- run each candidate through the
  :class:`~repro.serve.fleet.FleetSimulator` and score it with the
  :mod:`repro.hw.cost` models (cost/request, energy/request, p99, SLO
  attainment), caching every evaluation in the result store's plan tier;
* :mod:`repro.plan.pareto` -- the Pareto-frontier reducer and the
  "cheapest feasible point" constraint solver;
* :mod:`repro.plan.render` -- the table / CSV / JSON text of a plan
  document (imported on demand: it uses the experiments' table renderer).

``repro plan <spec>`` is the CLI surface; because plan points are store
keys, ``repro plan --shard I/N`` + ``repro assemble`` distribute a large
space across machines exactly like the experiment sweeps
(``docs/planning.md``).
"""

from repro.plan.evaluate import (
    COST_MODEL,
    OBJECTIVES,
    EvaluatedPoint,
    PlanEvaluation,
    evaluate_point,
    evaluate_space,
)
from repro.plan.pareto import cheapest_feasible, dominates, pareto_frontier
from repro.plan.space import (
    PLAN_MIXES,
    PLAN_SPECS,
    PlanPoint,
    PlanSpace,
    TrafficSpec,
    load_space,
    plan_point_key,
    space_digest,
    space_from_dict,
)

__all__ = [
    "COST_MODEL",
    "OBJECTIVES",
    "EvaluatedPoint",
    "PlanEvaluation",
    "PlanPoint",
    "PlanSpace",
    "PLAN_MIXES",
    "PLAN_SPECS",
    "TrafficSpec",
    "cheapest_feasible",
    "dominates",
    "evaluate_point",
    "evaluate_space",
    "load_space",
    "pareto_frontier",
    "plan_point_key",
    "space_digest",
    "space_from_dict",
]
