"""Serving-level metrics: latency percentiles, goodput, energy, utilization.

Where a :class:`~repro.core.accelerator.FrameReport` answers "how long does
one frame take", a :class:`ServingReport` answers the fleet-level questions
the ROADMAP's north star asks: what latency distribution do *users* see
(p50/p95/p99 of arrival -> completion), how many requests per second finish
inside their SLA (goodput), what does each request cost in energy, and how
busy each device actually was.  Reports are plain frozen dataclasses built
once from per-request columns, so they serialize to JSON and compare
exactly in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.request import Request
    from repro.serve.scheduler import Worker


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of already-sorted ``ordered``.

    This is THE percentile definition of the serving layer: both
    :meth:`ServingReport.from_arrays` (the fast path's reducer) and the
    event-loop path (via :func:`percentile`) delegate here, so p50/p95/p99
    semantics cannot drift between them.  A one-element log returns its
    single sample for every ``q``; longer logs interpolate linearly at
    position ``(q / 100) * (n - 1)`` -- e.g. the p95 of a two-element log
    is ``0.05 * low + 0.95 * high``.  Pure Python on purpose: serving
    metrics stay bit-reproducible everywhere the event loop is.
    """
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]) of ``values``.

    Validates and sorts, then delegates to :func:`sorted_percentile` --
    the single pinned implementation shared with the report reducers.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return sorted_percentile(sorted(values), q)


@dataclass(frozen=True)
class CompletedRequest:
    """One served request: who ran it, when, and at what energy cost.

    ``shed_level`` / ``quality`` record quality shedding
    (:mod:`repro.serve.control`): level 0 / quality 1.0 is a full-quality
    serve, higher levels mean the fleet served a cheaper rung of the
    degradation ladder (a batch is rendered once, so every member shares
    the batch's level).
    """

    request: "Request"
    worker: str
    start_s: float
    finish_s: float
    batch_size: int
    energy_j: float
    shed_level: int = 0
    quality: float = 1.0

    @property
    def latency_s(self) -> float:
        """End-to-end latency the user saw (arrival to completion)."""
        return self.finish_s - self.request.arrival_s

    @property
    def wait_s(self) -> float:
        """Time spent queued before service started."""
        return self.start_s - self.request.arrival_s

    @property
    def met_deadline(self) -> bool:
        """Whether the request finished inside its SLA (no deadline -> True)."""
        deadline = self.request.deadline_s
        return deadline is None or self.finish_s <= deadline


@dataclass(frozen=True)
class RejectedRequest:
    """One request turned away at ingress by an admission policy."""

    request: "Request"
    time_s: float
    reason: str


@dataclass(frozen=True)
class WorkerStats:
    """Per-device aggregate over one serving run."""

    worker: str
    device: str
    requests_served: int
    batches_served: int
    busy_s: float
    utilization: float
    energy_j: float


#: Group label for requests that carry no tenant tag.
UNTAGGED_TENANT = "-"


@dataclass(frozen=True)
class TenantStats:
    """Per-tenant aggregate over one serving run (multi-tenant streams).

    ``slo_attainment`` is the tenant's end-user SLO: deadline-met
    completions over *offered* requests (rejections count against it),
    matching :attr:`ServingReport.slo_attainment` fleet-wide.  A declared
    tenant that offered nothing trivially attains 1.0.
    """

    tenant: str
    offered: int
    completed: int
    rejected: int
    met_deadline: int
    slo_attainment: float
    mean_latency_s: float
    p95_latency_s: float
    mean_quality: float


@dataclass(frozen=True)
class SessionStats:
    """Per-session aggregate over one serving run (interactive streams).

    ``missed`` counts offered frames that did not finish inside their
    deadline -- rejected frames included -- so ``fully_met`` means the
    session's user saw every single frame on time.
    """

    session: int
    frames: int
    completed: int
    missed: int
    slo_attainment: float
    mean_latency_s: float
    p95_latency_s: float
    fully_met: bool


@dataclass(frozen=True)
class ServingReport:
    """Fleet-level summary of one serving simulation.

    All aggregate fields are derived deterministically from the per-request
    columns via :meth:`from_arrays`.  The ``completed`` and ``rejected``
    logs are kept (excluded from equality and ``repr``) for drill-down
    analysis; each is built on first read and then cached, so a caller
    that reads only aggregates never pays for the per-request objects.

    With a control plane attached (:mod:`repro.serve.control`) the report
    also accounts for the other two request outcomes: ``rejected_requests``
    were turned away at ingress (conservation holds: ``num_requests ==
    completed_requests + rejected_requests``), and ``shed_requests`` were
    completed at reduced quality, summarized by the delivered-quality
    mean / percentiles (1.0 when nothing was shed).
    """

    scheduler: str
    fleet: tuple[str, ...]
    num_requests: int
    completed_requests: int
    makespan_s: float
    offered_rps: float
    goodput_rps: float
    sla_attainment: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    mean_wait_s: float
    mean_batch_size: float
    energy_per_request_j: float
    workers: tuple[WorkerStats, ...]
    rejected_requests: int = 0
    shed_requests: int = 0
    met_deadline_requests: int = 0
    mean_quality: float = 1.0
    p50_quality: float = 1.0
    p05_quality: float = 1.0
    peak_active_workers: int = 0
    mean_active_workers: float = 0.0
    _completed_log: Callable[[], Iterable[CompletedRequest]] = field(
        default=tuple, compare=False, repr=False
    )
    _rejected_log: Callable[[], Iterable[RejectedRequest]] = field(
        default=tuple, compare=False, repr=False
    )

    @cached_property
    def completed(self) -> tuple[CompletedRequest, ...]:
        """The completed-request log in request-id order (built on first read)."""
        return tuple(self._completed_log())

    @cached_property
    def rejected(self) -> tuple[RejectedRequest, ...]:
        """The rejected-request log in request-id order (built on first read)."""
        return tuple(sorted(self._rejected_log(), key=lambda r: r.request.request_id))

    @classmethod
    def from_completions(
        cls,
        scheduler: str,
        fleet: Sequence[str],
        workers: Sequence["Worker"],
        completed: Sequence[CompletedRequest],
        num_requests: int,
        rejected: Sequence[RejectedRequest] = (),
        arrival_span_s: float | None = None,
        peak_active_workers: int | None = None,
        mean_active_workers: float | None = None,
    ) -> "ServingReport":
        """Aggregate a completed-request log into the uniform report shape."""
        completed = tuple(sorted(completed, key=lambda c: c.request.request_id))
        rejected = tuple(rejected)
        return cls.from_arrays(
            scheduler=scheduler,
            fleet=fleet,
            workers=workers,
            num_requests=num_requests,
            arrivals=np.array(
                [c.request.arrival_s for c in completed], dtype=np.float64
            ),
            starts=np.array([c.start_s for c in completed], dtype=np.float64),
            finishes=np.array([c.finish_s for c in completed], dtype=np.float64),
            deadlines=[c.request.deadline_s for c in completed],
            batch_sizes=[c.batch_size for c in completed],
            energies=np.array([c.energy_j for c in completed], dtype=np.float64),
            qualities=[c.quality for c in completed],
            shed_levels=[c.shed_level for c in completed],
            completed=lambda: completed,
            rejected=lambda: rejected,
            rejected_requests=len(rejected),
            arrival_span_s=arrival_span_s,
            peak_active_workers=peak_active_workers,
            mean_active_workers=mean_active_workers,
        )

    @classmethod
    def from_arrays(
        cls,
        scheduler: str,
        fleet: Sequence[str],
        workers: Sequence["Worker"],
        num_requests: int,
        arrivals: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        deadlines: Sequence[float | None],
        batch_sizes: Sequence[int],
        energies: np.ndarray,
        qualities: Sequence[float] | None = None,
        shed_levels: Sequence[int] | None = None,
        completed: Callable[[], Iterable[CompletedRequest]] = tuple,
        rejected: Callable[[], Iterable[RejectedRequest]] = tuple,
        rejected_requests: int = 0,
        arrival_span_s: float | None = None,
        peak_active_workers: int | None = None,
        mean_active_workers: float | None = None,
    ) -> "ServingReport":
        """Aggregate per-request columns into a report.

        The columns must already be sorted by request id.  Every statistic
        is computed with the same IEEE-754 operations in the same order as
        the historical per-object aggregation, so reports are bit-identical
        whichever entry point built them.  ``completed`` and ``rejected``
        build the two logs (the completions in column order, the
        ``rejected_requests`` rejections in any order); the report calls
        each only when its log is first read.

        ``arrival_span_s`` is the arrival span of *all offered* requests
        (the simulator computes it before admission); without it the span
        of the completed log is used, which under-reports offered load
        when requests were rejected -- and is undefined (0) when *every*
        request was, the empty-report edge the control plane exposed.
        """
        n = len(arrivals)
        # All rates share one time origin -- the first arrival -- so replayed
        # traces with a nonzero origin report honest numbers: the makespan is
        # first arrival -> last completion, and offered load is measured over
        # the arrival span alone (under overload the queue drains long after
        # the last arrival; dividing arrivals by the drain-extended makespan
        # would just re-measure completion throughput).
        first_arrival = float(arrivals.min()) if n else 0.0
        last_finish = float(finishes.max()) if n else 0.0
        makespan = last_finish - first_arrival if n else 0.0
        if arrival_span_s is not None:
            arrival_span = arrival_span_s
        else:
            arrival_span = float(arrivals.max()) - first_arrival if n else 0.0
        # Elementwise float64 subtraction matches the per-completion
        # ``finish_s - arrival_s`` property exactly; sums run left-to-right
        # over the request-id order, as the per-object loop always did.
        latency_column = finishes - arrivals
        latencies = latency_column.tolist()
        waits = (starts - arrivals).tolist()
        ordered_latencies = np.sort(latency_column).tolist()
        if n:
            deadline_bounds = np.array(
                [math.inf if d is None else d for d in deadlines],
                dtype=np.float64,
            )
            met = int(np.count_nonzero(finishes <= deadline_bounds))
        else:
            met = 0
        if qualities is None:
            qualities = []
        quality_list = list(qualities)
        ordered_qualities = sorted(quality_list)
        shed = sum(1 for level in shed_levels if level > 0) if shed_levels else 0
        worker_stats = tuple(
            WorkerStats(
                worker=w.label,
                device=w.device.name,
                requests_served=w.requests_served,
                batches_served=w.batches_served,
                busy_s=w.busy_s,
                utilization=w.busy_s / makespan if makespan > 0 else 0.0,
                energy_j=w.energy_j,
            )
            for w in workers
        )
        return cls(
            scheduler=scheduler,
            fleet=tuple(fleet),
            num_requests=num_requests,
            completed_requests=n,
            makespan_s=makespan,
            offered_rps=num_requests / arrival_span if arrival_span > 0 else 0.0,
            goodput_rps=met / makespan if makespan > 0 else 0.0,
            sla_attainment=met / n if n else 1.0,
            p50_latency_s=sorted_percentile(ordered_latencies, 50.0) if n else 0.0,
            p95_latency_s=sorted_percentile(ordered_latencies, 95.0) if n else 0.0,
            p99_latency_s=sorted_percentile(ordered_latencies, 99.0) if n else 0.0,
            mean_latency_s=sum(latencies) / n if n else 0.0,
            mean_wait_s=sum(waits) / n if n else 0.0,
            mean_batch_size=sum(batch_sizes) / n if n else 0.0,
            energy_per_request_j=sum(energies.tolist()) / n if n else 0.0,
            workers=worker_stats,
            rejected_requests=rejected_requests,
            shed_requests=shed,
            met_deadline_requests=met,
            mean_quality=sum(quality_list) / n if quality_list else 1.0,
            p50_quality=sorted_percentile(ordered_qualities, 50.0) if quality_list else 1.0,
            p05_quality=sorted_percentile(ordered_qualities, 5.0) if quality_list else 1.0,
            peak_active_workers=(
                peak_active_workers
                if peak_active_workers is not None
                else len(worker_stats)
            ),
            mean_active_workers=(
                mean_active_workers
                if mean_active_workers is not None
                else float(len(worker_stats))
            ),
            _completed_log=completed,
            _rejected_log=rejected,
        )

    @property
    def slo_attainment(self) -> float:
        """Fraction of *offered* requests that finished inside their SLA.

        Unlike :attr:`sla_attainment` (which conditions on completion),
        rejected requests count against the SLO here -- this is the number
        an end user experiences, and the one the overload-control
        experiments compare.  An empty offered load trivially attains 1.0.
        """
        if self.num_requests == 0:
            return 1.0
        return self.met_deadline_requests / self.num_requests

    @property
    def mean_utilization(self) -> float:
        """Average busy fraction across the fleet's devices."""
        if not self.workers:
            return 0.0
        return sum(w.utilization for w in self.workers) / len(self.workers)

    def by_tenant(
        self, declared: Sequence[str] | None = None
    ) -> tuple[TenantStats, ...]:
        """Per-tenant attainment breakdown of the request logs.

        Requests without a tenant tag group under :data:`UNTAGGED_TENANT`.
        ``declared`` fixes the leading row order and forces a row for
        every named tenant even when it offered no requests (attainment
        trivially 1.0); tenants seen in the logs but not declared follow
        in sorted-name order.  Pure function of the ``completed`` /
        ``rejected`` logs, so both simulator paths agree exactly.
        """
        completed_by: dict[str, list[CompletedRequest]] = {}
        rejected_by: dict[str, int] = {}
        for record in self.completed:
            name = record.request.tenant or UNTAGGED_TENANT
            completed_by.setdefault(name, []).append(record)
        for rejection in self.rejected:
            name = rejection.request.tenant or UNTAGGED_TENANT
            rejected_by[name] = rejected_by.get(name, 0) + 1
        names = list(declared) if declared is not None else []
        extras = sorted({*completed_by, *rejected_by} - set(names))
        stats = []
        for name in [*names, *extras]:
            completions = completed_by.get(name, [])
            rejections = rejected_by.get(name, 0)
            offered = len(completions) + rejections
            met = sum(1 for c in completions if c.met_deadline)
            latencies = [c.latency_s for c in completions]
            stats.append(
                TenantStats(
                    tenant=name,
                    offered=offered,
                    completed=len(completions),
                    rejected=rejections,
                    met_deadline=met,
                    slo_attainment=met / offered if offered else 1.0,
                    mean_latency_s=(
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    p95_latency_s=(
                        sorted_percentile(sorted(latencies), 95.0)
                        if latencies
                        else 0.0
                    ),
                    mean_quality=(
                        sum(c.quality for c in completions) / len(completions)
                        if completions
                        else 1.0
                    ),
                )
            )
        return tuple(stats)

    def by_session(self) -> tuple[SessionStats, ...]:
        """Per-session frame attainment, for interactive session streams.

        Only requests stamped with a ``session`` id participate; sessions
        are reported in ascending id order.  Pure function of the request
        logs, so both simulator paths agree exactly.
        """
        completed_by: dict[int, list[CompletedRequest]] = {}
        offered_by: dict[int, int] = {}
        for record in self.completed:
            session = record.request.session
            if session is None:
                continue
            completed_by.setdefault(session, []).append(record)
            offered_by[session] = offered_by.get(session, 0) + 1
        for rejection in self.rejected:
            session = rejection.request.session
            if session is None:
                continue
            offered_by[session] = offered_by.get(session, 0) + 1
        stats = []
        for session in sorted(offered_by):
            completions = completed_by.get(session, [])
            frames = offered_by[session]
            met = sum(1 for c in completions if c.met_deadline)
            latencies = [c.latency_s for c in completions]
            stats.append(
                SessionStats(
                    session=session,
                    frames=frames,
                    completed=len(completions),
                    missed=frames - met,
                    slo_attainment=met / frames if frames else 1.0,
                    mean_latency_s=(
                        sum(latencies) / len(latencies) if latencies else 0.0
                    ),
                    p95_latency_s=(
                        sorted_percentile(sorted(latencies), 95.0)
                        if latencies
                        else 0.0
                    ),
                    fully_met=frames - met == 0,
                )
            )
        return tuple(stats)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (completed-request log elided)."""
        return {
            "scheduler": self.scheduler,
            "fleet": list(self.fleet),
            "num_requests": self.num_requests,
            "completed_requests": self.completed_requests,
            "rejected_requests": self.rejected_requests,
            "shed_requests": self.shed_requests,
            "met_deadline_requests": self.met_deadline_requests,
            "slo_attainment": self.slo_attainment,
            "mean_quality": self.mean_quality,
            "p50_quality": self.p50_quality,
            "p05_quality": self.p05_quality,
            "peak_active_workers": self.peak_active_workers,
            "mean_active_workers": self.mean_active_workers,
            "makespan_s": self.makespan_s,
            "offered_rps": self.offered_rps,
            "goodput_rps": self.goodput_rps,
            "sla_attainment": self.sla_attainment,
            "p50_latency_s": self.p50_latency_s,
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "mean_latency_s": self.mean_latency_s,
            "mean_wait_s": self.mean_wait_s,
            "mean_batch_size": self.mean_batch_size,
            "energy_per_request_j": self.energy_per_request_j,
            "mean_utilization": self.mean_utilization,
            "workers": [
                {
                    "worker": w.worker,
                    "device": w.device,
                    "requests_served": w.requests_served,
                    "batches_served": w.batches_served,
                    "busy_s": w.busy_s,
                    "utilization": w.utilization,
                    "energy_j": w.energy_j,
                }
                for w in self.workers
            ],
        }
