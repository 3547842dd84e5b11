"""Discrete-event fleet simulator driving the cached frame model.

The :class:`FleetSimulator` closes the loop between the demand side
(:mod:`repro.serve.request`), the policy side (:mod:`repro.serve.scheduler`)
and the frame-level device models: it replays a request stream against a
fleet of registered devices.  Service times come from the shared
:class:`~repro.sim.sweep.SweepEngine`, looked up once per (scenario, shed
level, device) into a per-run service table, so a stream of thousands of
requests over a handful of scenarios performs a handful of engine lookups
and frame simulations -- and those simulations are *bit-exact* the ones the
paper's figures use, so serving results and figure results never drift
apart.  A warm serving experiment performs no simulation at all: the CLI
replays its whole result from the store's result tier
(:mod:`repro.perf.store`).

A :class:`~repro.serve.control.ControlConfig` attaches an overload control
plane: admission policies reject requests at ingress, a shedding policy
serves degraded-but-cheaper scenarios when the queue an arrival observes is
deep, and an autoscaler grows / shrinks the active worker subset on a fixed
control tick (scale-out pays a provisioning delay; scale-in drains).
Admission and shedding are decided at ingress from integer queue depths, so
FIFO fleets keep the closed-form fast path *and* its bit-identical guarantee;
autoscaling's feedback loop runs on the event loop only.

The event loop is deterministic.  Arrivals are read by a cursor over the
batch's sorted ``arrival_s`` column; completions, wake-ups and autoscaler
ticks live in a heap ordered by ``(time, sequence number)``.  At each
timestamp the cursor's arrivals are drained first, then the heap's
events, and only then does the scheduler run -- and only when it can act
(see :mod:`repro.serve.scheduler` for the call contract).  No wall-clock
or unseeded randomness is consulted anywhere.  The same stream + fleet +
scheduler therefore produces an identical
:class:`~repro.serve.report.ServingReport` on every run, every platform and
every ``--jobs`` setting.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import math
from bisect import bisect_left
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.serve.control import ControlConfig, FleetSnapshot
from repro.serve.report import (
    CompletedRequest,
    RejectedRequest,
    ServingReport,
    percentile,
)
from repro.serve.request import RequestBatch
from repro.serve.scheduler import (
    Dispatch,
    FIFOScheduler,
    RequestQueue,
    Scheduler,
    ServiceEstimate,
    Worker,
)
from repro.sim.sweep import SweepEngine, get_default_engine
from repro.validate import require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.control import DegradationLadder
    from repro.serve.request import Request, Scenario

#: Heap payloads of the event loop's two timers: a wake re-runs scheduling
#: when a worker becomes ready or a held batch is due, a tick runs the
#: autoscaler.
_WAKE = "wake"
_TICK = "tick"


class _ControlState:
    """Per-run mutable state of one :class:`ControlConfig` evaluation.

    Built fresh inside every ``run()`` call so repeated runs of the same
    simulator (and the same shared ``ControlConfig``) stay bit-identical:
    admission sessions, shed-level stamps, the autoscaler's active flags
    and latency window all live here and die with the run.
    """

    def __init__(self, config: ControlConfig, workers: Sequence[Worker]) -> None:
        self.config = config
        self.admission = (
            config.admission.session() if config.admission is not None else None
        )
        self.shedder = config.shedder
        self.autoscaler = config.autoscaler
        pool = len(workers)
        if self.autoscaler is not None:
            initial = (
                config.initial_workers
                if config.initial_workers is not None
                else self.autoscaler.min_workers
            )
            initial = self.autoscaler.clamp(initial, pool)
        else:
            initial = pool
        self.active = [index < initial for index in range(pool)]
        self.active_count = initial
        self.peak_active = initial
        self.tick_scheduled = False
        self.latencies: collections.deque[float] | None = (
            collections.deque(maxlen=self.autoscaler.latency_window)
            if self.autoscaler is not None
            else None
        )
        # Shed level stamped at ingress, keyed by request object identity
        # (the queued object flows through to dispatch unchanged).
        self.shed_levels: dict[int, int] = {}
        # Time-weighted active-worker accounting (autoscaler runs only).
        self._integral_origin: float | None = None
        self._last_change_s = 0.0
        self._active_integral = 0.0

    # -- ingress ---------------------------------------------------------------

    def admit_or_reject(
        self,
        now: float,
        request: "Request",
        queue_depth: int,
    ) -> str | None:
        """Run admission + shed stamping for one arrival.

        Returns the admission policy's rejection reason, or ``None`` when
        the arrival is admitted.
        """
        if self.admission is not None and not self.admission.admit(now, queue_depth):
            return self.admission.reason
        if self.shedder is not None and request.degradable:
            level = self.shedder.level(queue_depth, self.active_count)
            if level:
                self.shed_levels[id(request)] = level
        return None

    # -- autoscaling -----------------------------------------------------------

    def begin(self, now: float) -> None:
        """Anchor the active-worker time integral at the first event."""
        self._integral_origin = now
        self._last_change_s = now

    def autoscale(
        self,
        now: float,
        workers: Sequence[Worker],
        queue_depth: int,
        schedule_wake: Callable[[float], None],
    ) -> None:
        """Evaluate the autoscaler once and apply its (clamped) decision."""
        policy = self.autoscaler
        assert policy is not None
        self._account(now)
        busy = sum(
            1 for w in workers if self.active[w.index] and w.busy_until_s > now
        )
        recent = (
            percentile(list(self.latencies), 95.0) if self.latencies else None
        )
        snapshot = FleetSnapshot(
            now=now,
            queue_depth=queue_depth,
            active_workers=self.active_count,
            busy_workers=busy,
            pool_size=len(workers),
            recent_p95_s=recent,
        )
        desired = policy.clamp(policy.desired_workers(snapshot), len(workers))
        while desired > self.active_count:
            index = next(i for i, a in enumerate(self.active) if not a)
            self.active[index] = True
            self.active_count += 1
            worker = workers[index]
            ready = now + self.config.provision_delay_s
            if worker.busy_until_s < ready:
                worker.busy_until_s = ready
            if ready > now:
                schedule_wake(ready)
        while desired < self.active_count:
            index = next(
                i for i in range(len(self.active) - 1, -1, -1) if self.active[i]
            )
            # Drain: the worker finishes any in-flight dispatch and simply
            # stops being eligible for new ones.
            self.active[index] = False
            self.active_count -= 1
        if self.active_count > self.peak_active:
            self.peak_active = self.active_count

    def _account(self, now: float) -> None:
        """Accumulate the active-worker time integral up to ``now``."""
        if self._integral_origin is None:
            self.begin(now)
            return
        self._active_integral += self.active_count * (now - self._last_change_s)
        self._last_change_s = now

    def mean_active(self, final_now: float) -> float:
        """Time-weighted mean active workers over the simulated span."""
        if self._integral_origin is None:
            return float(self.active_count)
        self._account(final_now)
        span = final_now - self._integral_origin
        if span <= 0.0:
            return float(self.active_count)
        return self._active_integral / span


class _ServiceTable:
    """One run's frame-model estimates, one row per (scenario, shed level).

    A row holds one :class:`ServiceEstimate` per worker index for the
    scenario as served at that shed level, resolved once per distinct
    device name, so a run makes at most scenarios x devices x (ladder depth
    + 1) engine lookups however many requests it serves.  Lookups probe
    ``id(scenario)`` first (streams share scenario instances) and fall back
    to equality for distinct-but-equal scenario objects; the id table keeps
    a reference to each scenario, so an id cannot be reused mid-run.
    """

    def __init__(
        self,
        estimate: Callable[["Scenario", Worker], ServiceEstimate],
        workers: Sequence[Worker],
        ladder: "DegradationLadder | None" = None,
    ) -> None:
        self._estimate = estimate
        self._workers = workers
        self._ladder = ladder
        self._by_id: dict[
            tuple[int, int], tuple["Scenario", tuple[ServiceEstimate, ...]]
        ] = {}
        self._by_value: dict[tuple["Scenario", int], tuple[ServiceEstimate, ...]] = {}

    def row(self, scenario: "Scenario", level: int = 0) -> tuple[ServiceEstimate, ...]:
        """Per-worker estimates of ``scenario`` served at shed ``level``."""
        entry = self._by_id.get((id(scenario), level))
        if entry is not None:
            return entry[1]
        row = self._by_value.get((scenario, level))
        if row is None:
            served = scenario
            if level:
                assert self._ladder is not None
                served = self._ladder.apply(scenario, level)
            by_device: dict[str, ServiceEstimate] = {}
            for worker in self._workers:
                if worker.name not in by_device:
                    by_device[worker.name] = self._estimate(served, worker)
            row = tuple(by_device[worker.name] for worker in self._workers)
            self._by_value[(scenario, level)] = row
        self._by_id[(id(scenario), level)] = (scenario, row)
        return row

    def single(
        self, scenario: "Scenario", level: int = 0
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Batch-1 ``(service_s, energy_j)`` per worker: a fast-path row."""
        row = self.row(scenario, level)
        return (
            tuple(
                w.device.service_time_s(e.latency_s, 1)
                for w, e in zip(self._workers, row)
            ),
            tuple(
                w.device.service_energy_j(e.energy_j, 1)
                for w, e in zip(self._workers, row)
            ),
        )


class FleetSimulator:
    """Replay a request stream against a fleet of simulated devices.

    ``devices`` are registry names (:data:`repro.core.device.DEVICE_REGISTRY`)
    and may repeat -- ``("flexnerfer", "flexnerfer", "neurex")`` is a
    three-chip fleet.  ``default_sla_s`` stamps a deadline onto requests that
    do not carry one; ``engine`` defaults to the shared process-wide sweep
    engine so serving runs reuse (and warm) the figures' report cache.
    ``control`` attaches an overload control plane
    (:class:`~repro.serve.control.ControlConfig`); with an autoscaler the
    ``devices`` list is the *provisioned pool* and the policy decides how
    much of it is active at any instant.
    """

    def __init__(
        self,
        devices: Sequence[str],
        scheduler: Scheduler | None = None,
        engine: SweepEngine | None = None,
        default_sla_s: float | None = None,
        control: ControlConfig | None = None,
    ) -> None:
        """Resolve the fleet's devices and bind scheduler, engine and control."""
        if not devices:
            raise ValueError("a fleet needs at least one device")
        if default_sla_s is not None:
            require_positive("default_sla_s", default_sla_s)
        self.engine = engine or get_default_engine()
        self.scheduler = scheduler or FIFOScheduler()
        self.default_sla_s = default_sla_s
        self.control = control
        # Devices are resolved (and validated) once; per-run Worker state is
        # built fresh inside run(), so one simulator can serve many streams.
        self._fleet = [
            (name.lower(), self.engine.device(name)) for name in devices
        ]

    # -- service estimation ----------------------------------------------------

    def estimate(self, request: "Request", worker: Worker) -> ServiceEstimate:
        """Cached frame-model estimate of one request on one worker.

        Unsupported knobs are collapsed by the device's capability flags
        (exactly as in sweeps), so e.g. a pruned scenario estimated on
        NeuRex reuses NeuRex's single dense simulation.
        """
        return self._estimate_scenario(request.scenario, worker)

    def _estimate_scenario(self, scenario, worker: Worker) -> ServiceEstimate:
        """The frame-model estimate behind :meth:`estimate`, keyed by scenario."""
        report = self.engine.frame_report(
            worker.name,
            scenario.model,
            config=scenario.frame_config(),
            precision=scenario.precision,
            pruning_ratio=scenario.pruning_ratio,
        )
        return ServiceEstimate(latency_s=report.latency_s, energy_j=report.energy_j)

    def _ingress(self, requests: Sequence["Request"]) -> RequestBatch:
        """``requests`` as a batch in ``(arrival, request_id)`` order, SLA stamped.

        The ingress of every simulation path, checked on the columns: a
        non-finite arrival time has no place in the schedule (the event
        loop would never drain it), and a repeated request id would be
        served twice, so both are rejected here.  A batch already in order
        (every stream's output) is not re-sorted.
        """
        batch = RequestBatch.of(requests)
        arrivals = np.array(batch.arrival_s, dtype=np.float64)
        finite = np.isfinite(arrivals)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(
                f"request {batch.request_id[bad]}: arrival_s must be finite, "
                f"got {batch.arrival_s[bad]!r}"
            )
        ids = np.array(batch.request_id, dtype=np.int64)
        rising = ids[1:] > ids[:-1]
        if not rising.all():
            _, first = np.unique(ids, return_index=True)
            if len(first) != len(ids):
                repeated = np.ones(len(ids), dtype=bool)
                repeated[first] = False
                raise ValueError(
                    f"request {batch.request_id[int(np.argmax(repeated))]}: "
                    "duplicate request_id"
                )
        later, earlier = arrivals[1:], arrivals[:-1]
        if not np.all((later > earlier) | ((later == earlier) & rising)):
            batch = batch.take(np.lexsort((ids, arrivals)).tolist())
        sla = self.default_sla_s
        if sla is not None and None in batch.deadline_s:
            batch = RequestBatch(
                batch.request_id,
                batch.arrival_s,
                batch.scenario,
                [
                    arrival + sla if deadline is None else deadline
                    for arrival, deadline in zip(batch.arrival_s, batch.deadline_s)
                ],
                batch.tenant,
                batch.session,
                batch.degradable,
                batch.pose,
            )
        return batch

    # -- the event loop --------------------------------------------------------

    def run(self, requests: Sequence["Request"]) -> ServingReport:
        """Simulate serving ``requests`` and aggregate a :class:`ServingReport`.

        Worker state is per-run: calling ``run`` again on the same simulator
        starts from an idle fleet (only the engine's caches persist).

        Plain FIFO fleets take the closed-form fast path
        (:meth:`_run_fifo`), which produces a bit-identical report at an
        order of magnitude higher request throughput; every other
        scheduler -- and any config with an autoscaler, whose tick feedback
        has no closed form -- runs the discrete-event loop.  Admission and
        shedding alone keep the fast path.
        """
        if type(self.scheduler) is FIFOScheduler and (
            self.control is None or self.control.fast_path_compatible
        ):
            return self._run_fifo(requests)
        return self._run_event_loop(requests)

    def _run_event_loop(self, requests: Sequence["Request"]) -> ServingReport:
        """The general discrete-event engine (any scheduler, full control).

        Arrivals are read by a cursor over the batch's sorted
        ``arrival_s`` column; the heap holds only completions, wakes and
        ticks.  Each step drains the cursor's arrivals at ``now`` first,
        then the heap's events at ``now``, and ``assign`` runs only when
        the queue is non-empty and an active worker is idle.  When no
        active worker is idle, none can become idle before the heap's
        next event, so the arrivals before that event are queued (or
        rejected) in one step.  Every dispatch is logged once; the
        per-request columns are built from that log after the run, and
        the ``completed`` / ``rejected`` records only when someone reads
        them.
        """
        workers = [
            Worker(index=i, name=name, device=device)
            for i, (name, device) in enumerate(self._fleet)
        ]
        state = (
            _ControlState(self.control, workers)
            if self.control is not None and self.control.active
            else None
        )
        ordered = self._ingress(requests)
        table = _ServiceTable(
            self._estimate_scenario,
            workers,
            state.shedder.ladder
            if state is not None and state.shedder is not None
            else None,
        )

        def estimate(request: "Request", worker: Worker) -> ServiceEstimate:
            """Scheduler-facing estimate, read from the run's service table."""
            return table.row(request.scenario)[worker.index]

        scheduler = self.scheduler
        arrivals = ordered.requests()
        times = ordered.arrival_s
        count = len(times)
        arrival_span = times[-1] - times[0] if times else 0.0
        cursor = 0  # the next arrival's row
        seq = itertools.count()
        # Heap entries are (time, seq, payload): a completion's payload is
        # its dispatch's requests, a timer's is _WAKE or _TICK.  Timers and
        # completions at one timestamp commute, so push order suffices.
        events: list[tuple[float, int, object]] = []
        push, pop = heapq.heappush, heapq.heappop

        queue = RequestQueue()
        # One row per served request, in CompletedRequest field order:
        # (request, worker label, start, finish, batch size, energy share,
        # shed level, quality).  One RejectedRequest row per rejection.
        log: list[tuple] = []
        rejected: list[tuple["Request", float, str]] = []
        scheduled_wakes: set[float] = set()
        enqueue, record = queue.append, log.append

        def arrive(at: float, request: "Request") -> None:
            """Queue the arrival at ``at``, or log its rejection."""
            reason = (
                None
                if state is None
                else state.admit_or_reject(at, request, len(queue))
            )
            if reason is None:
                enqueue(request)
            else:
                rejected.append((request, at, reason))

        def schedule_wake(at: float) -> None:
            """Queue a wake so scheduling re-runs when a worker becomes ready."""
            if at not in scheduled_wakes:
                scheduled_wakes.add(at)
                push(events, (at, next(seq), _WAKE))

        autoscaling = state is not None and state.autoscaler is not None
        latencies = state.latencies if state is not None else None
        active = state.active if state is not None else None
        if autoscaling and count:
            state.begin(times[0])
            push(events, (times[0] + state.config.tick_s, next(seq), _TICK))
            state.tick_scheduled = True

        now = 0.0
        while cursor < count or events:
            if events and (cursor == count or events[0][0] < times[cursor]):
                now = events[0][0]
            else:
                now = times[cursor]
            # Drain every arrival, then every event, at this timestamp
            # before scheduling, so the policy sees a consistent snapshot
            # of queue + idle devices.
            while cursor < count and times[cursor] == now:
                arrive(now, arrivals[cursor])
                cursor += 1
            tick_due = False
            while events and events[0][0] == now:
                payload = pop(events)[2]
                if payload is _WAKE:
                    scheduled_wakes.discard(now)
                elif payload is _TICK:  # the autoscaler runs after the drain
                    tick_due = True
                    state.tick_scheduled = False
                elif latencies is not None:
                    for request in payload:
                        latencies.append(now - request.arrival_s)
            if tick_due:
                state.autoscale(now, workers, len(queue), schedule_wake)
            if autoscaling and not state.tick_scheduled and (
                cursor < count
                or queue
                or any(w.busy_until_s > now for w in workers)
            ):
                push(events, (now + state.config.tick_s, next(seq), _TICK))
                state.tick_scheduled = True

            queued = len(queue)
            if queued:
                idle = [
                    w
                    for w in workers
                    if w.busy_until_s <= now and (active is None or active[w.index])
                ]
                if idle:
                    dispatches, wake = scheduler.assign(
                        now, queue, idle, estimate, draining=cursor == count
                    )
                    taken = 0
                    for dispatch in dispatches:
                        members = dispatch.requests
                        finish, level, quality, energy, label = self._serve(
                            now, dispatch, table, state
                        )
                        batch = len(members)
                        shared = (label, now, finish, batch, energy, level, quality)
                        for request in members:
                            record((request, *shared))
                        push(events, (finish, next(seq), members))
                        taken += batch
                    left = len(queue)
                    if left != queued - taken:
                        raise RuntimeError(
                            f"scheduler '{scheduler.name}' dispatched {taken} "
                            f"requests but removed {queued - left} from the queue"
                        )
                    if wake is not None:
                        if not math.isfinite(wake):
                            raise ValueError(
                                f"scheduler '{scheduler.name}' returned a "
                                f"non-finite wake-up time {wake!r}"
                            )
                        if wake > now:
                            schedule_wake(wake)
                else:
                    # Every active worker stays busy until the heap's next
                    # event (a completion, a provisioning wake or a tick),
                    # so the arrivals before it can only queue up.
                    horizon = events[0][0] if events else math.inf
                    while cursor < count and times[cursor] < horizon:
                        arrive(times[cursor], arrivals[cursor])
                        cursor += 1
            if cursor == count and not events and queue:
                raise RuntimeError(
                    f"scheduler '{scheduler.name}' stalled with "
                    f"{len(queue)} queued requests and no pending events"
                )

        # The log's rows, in request-id order (ids are unique), are the
        # report's columns.
        log.sort(key=lambda row: row[0].request_id)
        served, _, starts, finishes, batch_sizes, energies, levels, qualities = (
            zip(*log) if log else ((),) * 8
        )
        shedding = state is not None and state.shedder is not None
        return ServingReport.from_arrays(
            scheduler=scheduler.name,
            fleet=tuple(w.name for w in workers),
            workers=workers,
            num_requests=count,
            arrivals=np.array([r.arrival_s for r in served], dtype=np.float64),
            starts=np.array(starts, dtype=np.float64),
            finishes=np.array(finishes, dtype=np.float64),
            deadlines=[r.deadline_s for r in served],
            batch_sizes=batch_sizes,
            energies=np.array(energies, dtype=np.float64),
            qualities=qualities if shedding else None,
            shed_levels=levels if shedding else None,
            completed=lambda: itertools.starmap(CompletedRequest, log),
            rejected=lambda: itertools.starmap(RejectedRequest, rejected),
            rejected_requests=len(rejected),
            arrival_span_s=arrival_span,
            peak_active_workers=state.peak_active if autoscaling else None,
            mean_active_workers=state.mean_active(now) if autoscaling else None,
        )

    def _serve(
        self,
        now: float,
        dispatch: Dispatch,
        table: _ServiceTable,
        state: _ControlState | None = None,
    ) -> tuple[float, int, float, float, str]:
        """Occupy the dispatch's worker; return what its members' records share.

        The result is ``(finish, level, quality, energy, label)``: the
        completion time, the shed level and delivered quality, each
        member's share of the batch energy, and the worker's label.  Under
        quality shedding a batch is rendered once at the *deepest* shed
        level stamped on any of its members (a batch shares one render
        configuration), so every member carries that level and quality.
        """
        worker = dispatch.worker
        if worker.busy_until_s > now:  # pragma: no cover - defensive
            raise RuntimeError(
                f"{worker.label} dispatched at {now} but busy until "
                f"{worker.busy_until_s}"
            )
        level = 0
        quality = 1.0
        if state is not None and state.shedder is not None:
            # A batch renders once, so degrading it would degrade every
            # member; a single pinned (degradable=False) request therefore
            # pins its whole batch at full quality.
            if all(request.degradable for request in dispatch.requests):
                level = max(
                    state.shed_levels.get(id(request), 0)
                    for request in dispatch.requests
                )
            if level:
                quality = state.shedder.ladder.quality_of(level)
        per_frame = table.row(dispatch.requests[0].scenario, level)[worker.index]
        batch = len(dispatch.requests)
        service_s = worker.device.service_time_s(per_frame.latency_s, batch)
        energy_j = worker.device.service_energy_j(per_frame.energy_j, batch)
        finish = now + service_s
        worker.busy_until_s = finish
        worker.busy_s += service_s
        worker.energy_j += energy_j
        worker.requests_served += batch
        worker.batches_served += 1
        return finish, level, quality, energy_j / batch, worker.label

    # -- the FIFO fast path ----------------------------------------------------

    def _run_fifo(self, requests: Sequence["Request"]) -> ServingReport:
        """Closed-form replay of a plain-FIFO fleet, bit-identical to the loop.

        FIFO with single-request dispatch admits a closed-form schedule:
        processing requests in ``(arrival, request_id)`` order, each either
        starts at its arrival on the lowest-indexed worker already free, or
        waits for the earliest-freeing worker (lowest index on ties) --
        exactly what the event loop's drain-then-assign cycle produces.
        Two heaps find that worker in O(log k): a busy heap of ``(free
        time, index)`` and an idle heap of indices.  Arrivals never go
        back in time, so before each request every busy entry free by its
        arrival moves to the idle heap; the request takes the lowest idle
        index if there is one, else the busy heap's minimum.  Per-worker
        float accumulation runs in the same dispatch order as the event
        loop, so the resulting :class:`ServingReport` -- including the
        ``completed`` log -- is bit-identical (pinned by
        ``tests/serve/test_fleet.py`` and the differential suites).

        The loop reads the batch's ``arrival_s`` and ``scenario`` columns
        and records row indices, starts, finishes, energies and shed
        levels; it builds no object per request.  The report builds its
        ``completed`` and ``rejected`` logs from those columns only when
        someone reads them.

        Admission and shedding are decided at ingress from the queue depth
        the arrival observes.  In FIFO order that depth is the number of
        requests admitted so far minus those started strictly before the
        arrival; start times are non-decreasing, so one
        :func:`bisect_left` over the start list recovers the event loop's
        ``len(queue)`` bit for bit.  Without admission or shedding that
        depth is never computed.
        """
        control = self.control
        active = control is not None and control.active
        session = (
            control.admission.session()
            if active and control.admission is not None
            else None
        )
        shedder = control.shedder if active else None
        ladder = shedder.ladder if shedder is not None else None
        gated = session is not None or shedder is not None
        workers = [
            Worker(index=i, name=name, device=device)
            for i, (name, device) in enumerate(self._fleet)
        ]
        batch = self._ingress(requests)
        arrivals = batch.arrival_s
        scenarios = batch.scenario
        degradable = batch.degradable  # None: every request may be shed
        k = len(workers)
        labels = [w.label for w in workers]
        arrival_span = arrivals[-1] - arrivals[0] if arrivals else 0.0
        # Batch-1 (service_s, energy_j) per worker, one dict per shed level
        # keyed by scenario id.  Streams share scenario instances, so the
        # inline id() probe almost always hits (the batch keeps its
        # scenarios alive for the whole run, so ids stay valid).
        table = _ServiceTable(self._estimate_scenario, workers, ladder)
        levels = range(ladder.depth + 1 if ladder is not None else 1)
        rows: list[dict[int, tuple[tuple[float, ...], tuple[float, ...]]]] = [
            {} for _ in levels
        ]
        quality_of = [1.0] + [ladder.quality_of(level) for level in levels[1:]]

        free = [w.busy_until_s for w in workers]
        busy_heap = [(f, j) for j, f in enumerate(free)]
        heapq.heapify(busy_heap)
        idle_heap: list[int] = []
        push, pop = heapq.heappush, heapq.heappop
        busy = [0.0] * k
        worker_energy = [0.0] * k
        served = [0] * k
        # One entry per served request, in dispatch order: its batch row,
        # worker index, start, finish, energy and (with a ladder) shed level.
        kept: list[int] = []
        chosen_of: list[int] = []
        starts: list[float] = []
        finishes: list[float] = []
        energies: list[float] = []
        shed_levels: list[int] = []
        rejected_rows: list[int] = []
        reasons: list[str] = []
        level = 0

        for i, arrival in enumerate(arrivals):
            if gated:
                # Queue depth this arrival observes: previously admitted
                # requests whose service has not started strictly before it.
                depth = len(starts) - bisect_left(starts, arrival)
                if session is not None and not session.admit(arrival, depth):
                    rejected_rows.append(i)
                    reasons.append(session.reason)
                    continue
                if shedder is not None:
                    level = (
                        shedder.level(depth, k)
                        if degradable is None or degradable[i]
                        else 0
                    )
                    shed_levels.append(level)
            scenario = scenarios[i]
            level_rows = rows[level]
            row = level_rows.get(id(scenario))
            if row is None:
                row = level_rows[id(scenario)] = table.single(scenario, level)
            while busy_heap and busy_heap[0][0] <= arrival:
                push(idle_heap, pop(busy_heap)[1])
            if idle_heap:
                chosen = pop(idle_heap)
                start = arrival
            else:
                start, chosen = pop(busy_heap)
            service_s = row[0][chosen]
            energy_j = row[1][chosen]
            finish = start + service_s
            push(busy_heap, (finish, chosen))
            free[chosen] = finish
            busy[chosen] += service_s
            worker_energy[chosen] += energy_j
            served[chosen] += 1
            kept.append(i)
            chosen_of.append(chosen)
            starts.append(start)
            finishes.append(finish)
            energies.append(energy_j)

        for j, worker in enumerate(workers):
            worker.busy_until_s = free[j]
            worker.busy_s = busy[j]
            worker.energy_j = worker_energy[j]
            worker.requests_served = served[j]
            worker.batches_served = served[j]

        n = len(kept)
        ids = np.array(batch.request_id, dtype=np.int64)[kept]
        if n and np.any(ids[1:] < ids[:-1]):
            # Trace streams may number requests out of arrival order; the
            # report contract is request-id order.
            positions = np.argsort(ids, kind="stable").tolist()
            kept, chosen_of, starts, finishes, energies = (
                [column[p] for p in positions]
                for column in (kept, chosen_of, starts, finishes, energies)
            )
            if shed_levels:
                shed_levels = [shed_levels[p] for p in positions]
        deadline_s = batch.deadline_s
        qualities = (
            [quality_of[level] for level in shed_levels]
            if shedder is not None
            else None
        )

        def completed() -> Iterator[CompletedRequest]:
            """The completion log, built from the columns on first read."""
            requests = batch.requests()
            return map(
                CompletedRequest,
                [requests[i] for i in kept],
                [labels[j] for j in chosen_of],
                starts,
                finishes,
                itertools.repeat(1, n),
                energies,
                shed_levels or itertools.repeat(0, n),
                qualities or itertools.repeat(1.0, n),
            )

        def rejected() -> Iterator[RejectedRequest]:
            """The rejection log, built from the columns on first read."""
            requests = batch.requests()
            return map(
                RejectedRequest,
                [requests[i] for i in rejected_rows],
                [arrivals[i] for i in rejected_rows],
                reasons,
            )

        return ServingReport.from_arrays(
            scheduler=self.scheduler.name,
            fleet=tuple(w.name for w in workers),
            workers=workers,
            num_requests=len(batch),
            arrivals=np.array(arrivals, dtype=np.float64)[kept],
            starts=np.array(starts, dtype=np.float64),
            finishes=np.array(finishes, dtype=np.float64),
            deadlines=[deadline_s[i] for i in kept],
            batch_sizes=[1] * n,
            energies=np.array(energies, dtype=np.float64),
            qualities=qualities,
            shed_levels=shed_levels if shedder is not None else None,
            completed=completed,
            rejected=rejected,
            rejected_requests=len(rejected_rows),
            arrival_span_s=arrival_span,
        )
