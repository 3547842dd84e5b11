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
keys, a warm re-run of a space re-evaluates nothing (``docs/planning.md``).
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.plan.evaluate": ("OBJECTIVES", "evaluate_space"),
        "repro.plan.pareto": ("cheapest_feasible", "pareto_frontier"),
        "repro.plan.space": ("load_space", "space_digest"),
    },
)
