"""Evaluate plan-space candidates: simulate, score, cache.

Each :class:`~repro.plan.space.PlanPoint` runs through the
:class:`~repro.serve.fleet.FleetSimulator` against the space's traffic spec
and is scored with the repository's hardware cost models
(:mod:`repro.hw.cost`): dollars per request (amortized silicon plus
electricity), energy per request, tail latency and SLO attainment.
Evaluations are pure functions of the space digest, so results are cached
in the store's plan tier (:class:`~repro.perf.store.PlanPointKey`) and a
warm re-run re-evaluates nothing.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.hw.cost import AreaReport, PowerReport
from repro.perf.store import PlanPointKey, ResultStore
from repro.plan.space import PlanPoint, PlanSpace, space_digest
from repro.serve.control import (
    ControlConfig,
    QueueCapAdmission,
    TokenBucketAdmission,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.scheduler import (
    BatchDeadlineScheduler,
    FIFOScheduler,
    Scheduler,
    SparsityAwareScheduler,
)
from repro.sim.sweep import SweepEngine, get_default_engine

#: Pinned cost-model constants; part of the plan-point cache key, so any
#: change here invalidates every cached evaluation.  ``silicon_dollars_per_mm2``
#: amortizes die cost over ``amortization_s`` of service (three years);
#: ``area_proxy_mm2_per_w`` stands in for devices without an area model
#: (NVDLA / TPU expose power only); ``electricity_dollars_per_kwh`` prices
#: the energy the fleet actually spent.
COST_MODEL = {
    "silicon_dollars_per_mm2": 0.08,
    "area_proxy_mm2_per_w": 2.5,
    "amortization_s": 3.0 * 365.0 * 86400.0,
    "electricity_dollars_per_kwh": 0.12,
}

#: Ordered objective fields the Pareto reducer minimizes.
OBJECTIVES = ("cost_per_request", "p99_latency_s", "energy_per_request_j")

#: The exact metric keys an :class:`EvaluatedPoint` payload round-trips.
METRIC_FIELDS = (
    "cost_per_request",
    "p99_latency_s",
    "energy_per_request_j",
    "p50_latency_s",
    "slo_attainment",
    "goodput_rps",
    "completed_requests",
    "rejected_requests",
    "makespan_s",
    "fleet_area_mm2",
    "fleet_power_w",
)


def make_scheduler(name: str) -> Scheduler:
    """A fresh scheduler instance for a plan-space policy name."""
    if name == "fifo":
        return FIFOScheduler()
    if name == "sparsity-aware":
        return SparsityAwareScheduler()
    if name == "batch-deadline":
        return BatchDeadlineScheduler(max_batch=8, max_wait_s=0.05)
    raise ValueError(f"unknown scheduler '{name}'")


def make_control(name: str) -> ControlConfig | None:
    """A fresh control plane for a plan-space control variant name.

    Constants are pinned (and hashed into the space digest through the
    variant name): ``queue-cap`` admits at most 32 queued requests,
    ``token-bucket`` admits a sustained 60 rps with a 12-request burst.
    Both are autoscaler-free so FIFO candidates keep the fast path.
    """
    if name == "none":
        return None
    if name == "queue-cap":
        return ControlConfig(admission=QueueCapAdmission(max_queue=32))
    if name == "token-bucket":
        return ControlConfig(admission=TokenBucketAdmission(rate_rps=60.0, burst=12))
    raise ValueError(f"unknown control variant '{name}'")


def fleet_area_report(fleet: tuple[str, ...], engine: SweepEngine) -> AreaReport:
    """Per-worker silicon area of ``fleet``, with a power-derived fallback.

    Devices without an area model (the ``area_mm2`` protocol method raises
    ``NotImplementedError``) are charged ``area_proxy_mm2_per_w`` mm^2 per
    watt of typical power -- a crude but deterministic stand-in that keeps
    power-only baselines comparable in the cost objective.
    """
    report = AreaReport()
    for slot, name in enumerate(fleet):
        device = engine.device(name)
        try:
            area = device.area_mm2()
        except NotImplementedError:
            area = device.power_w() * COST_MODEL["area_proxy_mm2_per_w"]
        report.add(f"{name}#{slot}", area)
    return report


def fleet_power_report(fleet: tuple[str, ...], engine: SweepEngine) -> PowerReport:
    """Per-worker typical power draw of ``fleet``."""
    report = PowerReport()
    for slot, name in enumerate(fleet):
        device = engine.device(name)
        report.add(f"{name}#{slot}", device.power_w())
    return report


@dataclass(frozen=True)
class EvaluatedPoint:
    """One scored candidate: the plan point plus its serving metrics.

    A candidate that completed zero requests scores ``inf`` on every
    minimized objective, so any working fleet dominates it and it can
    never reach the frontier.
    """

    point: PlanPoint
    cost_per_request: float
    p99_latency_s: float
    energy_per_request_j: float
    p50_latency_s: float
    slo_attainment: float
    goodput_rps: float
    completed_requests: int
    rejected_requests: int
    makespan_s: float
    fleet_area_mm2: float
    fleet_power_w: float

    @property
    def objectives(self) -> tuple[float, float, float]:
        """The minimized objective vector (cost, p99, energy per request)."""
        return (
            self.cost_per_request,
            self.p99_latency_s,
            self.energy_per_request_j,
        )

    @property
    def sort_key(self) -> tuple:
        """Deterministic total order: objectives, then candidate identity."""
        return (
            *self.objectives,
            self.point.label,
            self.point.scheduler,
            self.point.control,
            self.point.traffic,
        )

    def to_payload(self) -> dict:
        """JSON-safe store payload (exact float round-trip via ``repr``)."""
        return {
            "point": {
                "fleet": list(self.point.fleet),
                "scheduler": self.point.scheduler,
                "control": self.point.control,
                "traffic": self.point.traffic,
            },
            "metrics": {field: getattr(self, field) for field in METRIC_FIELDS},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EvaluatedPoint":
        """Rebuild an evaluated point from :meth:`to_payload` output.

        Raises ``ValueError`` on any malformed payload, which cache readers
        treat as a miss (the slot heals on the next evaluation).
        """
        try:
            point = PlanPoint(
                fleet=tuple(str(d) for d in payload["point"]["fleet"]),
                scheduler=str(payload["point"]["scheduler"]),
                control=str(payload["point"]["control"]),
                # Pre-traffic-axis payloads carry no shape; they were all
                # evaluated against the Poisson baseline.
                traffic=str(payload["point"].get("traffic", "poisson")),
            )
            metrics = payload["metrics"]
            kwargs = {field: metrics[field] for field in METRIC_FIELDS}
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed plan-point payload: {exc!r}") from exc
        kwargs["completed_requests"] = int(kwargs["completed_requests"])
        kwargs["rejected_requests"] = int(kwargs["rejected_requests"])
        for field in METRIC_FIELDS:
            if field not in ("completed_requests", "rejected_requests"):
                kwargs[field] = float(kwargs[field])
        return cls(point=point, **kwargs)


def evaluate_point(
    space: PlanSpace,
    point: PlanPoint,
    requests,
    engine: SweepEngine | None = None,
) -> EvaluatedPoint:
    """Simulate ``point`` against ``requests`` and score it.

    ``requests`` is the space's traffic under the point's shape
    (``space.traffic.requests(point.traffic)``), generated once per shape
    by the caller so candidates sharing a shape replay the identical
    arrival process.
    """
    engine = engine or get_default_engine()
    simulator = FleetSimulator(
        point.fleet,
        scheduler=make_scheduler(point.scheduler),
        engine=engine,
        default_sla_s=space.traffic.sla_s,
        control=make_control(point.control),
    )
    report = simulator.run(requests)
    area = fleet_area_report(point.fleet, engine).total_mm2
    power = fleet_power_report(point.fleet, engine).total_w
    completed = report.completed_requests
    energy_j = sum(worker.energy_j for worker in report.workers)
    if completed > 0:
        capex = (
            area
            * COST_MODEL["silicon_dollars_per_mm2"]
            * (report.makespan_s / COST_MODEL["amortization_s"])
        )
        opex = energy_j * COST_MODEL["electricity_dollars_per_kwh"] / 3.6e6
        cost_per_request = (capex + opex) / completed
        p99 = report.p99_latency_s
        energy_per_request = energy_j / completed
    else:
        cost_per_request = math.inf
        p99 = math.inf
        energy_per_request = math.inf
    return EvaluatedPoint(
        point=point,
        cost_per_request=cost_per_request,
        p99_latency_s=p99,
        energy_per_request_j=energy_per_request,
        p50_latency_s=report.p50_latency_s if completed else math.inf,
        slo_attainment=report.slo_attainment,
        goodput_rps=report.goodput_rps,
        completed_requests=completed,
        rejected_requests=report.rejected_requests,
        makespan_s=report.makespan_s,
        fleet_area_mm2=area,
        fleet_power_w=power,
    )


@dataclass(frozen=True)
class PlanEvaluation:
    """The outcome of evaluating a plan space.

    ``points`` is in enumeration order; ``fresh`` / ``cached`` count
    simulations run vs. store hits, so a warm re-run can be checked for
    zero re-evaluations.
    """

    points: tuple[EvaluatedPoint, ...]
    fresh: int
    cached: int


def evaluate_space(
    space: PlanSpace,
    engine: SweepEngine | None = None,
    store: ResultStore | None = None,
    jobs: int = 1,
) -> PlanEvaluation:
    """Evaluate every candidate of ``space``.

    ``store`` (defaulting to the engine's attached store) caches each
    evaluation under its :class:`~repro.perf.store.PlanPointKey`; ``jobs``
    fans fresh evaluations over a thread pool with bit-identical results.
    """
    engine = engine or get_default_engine()
    if store is None:
        store = engine.store
    points = space.enumerate_points()
    digest = space_digest(space)
    keyed = [(point, PlanPointKey(digest, point.digest)) for point in points]
    # One realized arrival process per traffic shape in use; candidates
    # sharing a shape replay the identical requests.
    requests_by_shape = {
        shape: space.traffic.requests(shape)
        for shape in sorted({point.traffic for point in points})
    }
    fresh = 0
    cached = 0

    def evaluate_one(
        item: tuple[PlanPoint, PlanPointKey]
    ) -> tuple[EvaluatedPoint, bool]:
        point, key = item
        if store is not None:
            payload = store.get(key)
            if payload is not None:
                try:
                    return EvaluatedPoint.from_payload(payload), True
                except ValueError:
                    pass  # corrupt entry: fall through and re-evaluate
        evaluated = evaluate_point(
            space, point, requests_by_shape[point.traffic], engine=engine
        )
        if store is not None:
            store.put(key, evaluated.to_payload())
        return evaluated, False

    if jobs > 1 and len(keyed) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(evaluate_one, keyed))
    else:
        outcomes = [evaluate_one(item) for item in keyed]
    for _, was_cached in outcomes:
        if was_cached:
            cached += 1
        else:
            fresh += 1
    return PlanEvaluation(
        points=tuple(evaluated for evaluated, _ in outcomes),
        fresh=fresh,
        cached=cached,
    )
