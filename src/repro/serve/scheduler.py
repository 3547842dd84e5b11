"""Pluggable scheduling policies for the fleet simulator.

A scheduler decides, whenever the fleet's state changes (a request arrives,
a device frees up, a hold timer fires), which queued requests to dispatch to
which idle devices.  Three policies are provided:

* :class:`FIFOScheduler` -- head-of-line request to the first idle device,
  one request per dispatch: the baseline every serving paper compares
  against;
* :class:`SparsityAwareScheduler` -- routes each request to the idle device
  with the smallest *estimated* service time for that request's scenario.
  Estimates come from the same cached frame model the figures use, so the
  router automatically prefers FlexNeRFer for pruned / low-precision
  scenarios (where its sparsity wins compound) and spreads dense work onto
  whatever is free;
* :class:`BatchDeadlineScheduler` -- accumulates same-scenario requests into
  batches and dispatches when the batch is full, the oldest request has
  waited ``max_wait_s``, or its deadline would otherwise be missed.
  Batching devices amortize per-frame setup via
  :meth:`repro.core.device.Device.service_time_s`.

Schedulers are handed the simulator's :class:`RequestQueue` -- the queued
requests grouped by scenario, each group oldest first -- remove the requests
they dispatch through it, and may return a wake-up time so the event loop
revisits a held batch even if nothing else happens.  A custom scheduler
uses only the queue's contract:

* ``len(queue)`` and ``iter(queue)`` -- every queued request, in push
  order;
* ``queue.popleft()`` -- remove and return the oldest queued request
  (``list.pop(0)`` of a single FIFO queue);
* ``queue.groups()`` -- the non-empty scenario groups, the group whose
  head is oldest first; a group is a read-only deque of ``(push seq,
  request)`` pairs, oldest first;
* ``queue.take(group, n)`` -- remove and return the ``n`` oldest requests
  of ``group`` as a tuple.

Costs depend on the number of scenario groups S, not on the queue's
depth: ``append``, ``len`` and ``take`` are O(1) per request, ``popleft``
is O(S) and ``groups()`` O(S log S); only ``iter`` walks the whole queue.
A policy that looks only at group heads therefore stays linear however
deep the backlog grows.

The simulator's call contract:

* ``assign`` is called only when it can act: after every arrival, completion
  and timer at one timestamp has been drained, and only if the queue is
  non-empty *and* at least one active worker is idle.  ``idle`` is then a
  non-empty list in fleet order.  In every other state a policy could only
  answer ``([], None)`` -- which all three built-in policies do -- so the
  call is skipped, and a policy must not rely on being called there (a
  wake-up it wants must be returned while it can act);
* ``assign`` removes from the queue exactly the requests it dispatches; a
  call after which ``len(queue)`` did not drop by the number of dispatched
  requests raises :class:`RuntimeError` naming the scheduler;
* a returned wake-up time must be finite: one later than ``now`` makes the
  loop revisit that instant (and call ``assign`` again if it can act
  then); a non-finite one raises :class:`ValueError`.
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Iterator

from repro.validate import require_count, require_nonnegative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import Device
    from repro.serve.request import Request, Scenario


@dataclass
class Worker:
    """One device instance of the fleet plus its running service statistics."""

    index: int
    name: str
    device: "Device"
    busy_until_s: float = 0.0
    busy_s: float = 0.0
    energy_j: float = 0.0
    requests_served: int = 0
    batches_served: int = 0

    @property
    def label(self) -> str:
        """Unique display name within the fleet, e.g. ``flexnerfer#0``."""
        return f"{self.name}#{self.index}"


@dataclass(frozen=True)
class ServiceEstimate:
    """Frame-model estimate of serving one request on one device."""

    latency_s: float
    energy_j: float


#: ``estimate(request, worker)`` callback the fleet simulator provides; it is
#: backed by the sweep engine's report cache, so repeated scenarios are free.
EstimateFn = Callable[["Request", Worker], ServiceEstimate]


@dataclass(frozen=True)
class Dispatch:
    """One scheduling decision: a batch of same-scenario requests on a worker."""

    worker: Worker
    requests: tuple["Request", ...]

    def __post_init__(self) -> None:
        """Reject empty or mixed-scenario batches."""
        if not self.requests:
            raise ValueError("a dispatch needs at least one request")
        scenario = self.requests[0].scenario
        for request in self.requests[1:]:
            if request.scenario is not scenario and request.scenario != scenario:
                scenarios = {r.scenario for r in self.requests}
                raise ValueError(
                    f"a dispatch must share one scenario, got {scenarios}"
                )

    @property
    def scenario(self) -> "Scenario":
        """The scenario every request of the batch shares."""
        return self.requests[0].scenario


#: One scenario group of a :class:`RequestQueue`: ``(push seq, request)``
#: pairs, oldest first.
Group = deque[tuple[int, "Request"]]


class RequestQueue:
    """The simulator's FIFO queue, stored as one deque per scenario.

    Requests are grouped by scenario *value*: the group lookup probes
    ``id(scenario)`` first (streams share scenario instances, so this almost
    always hits) and falls back to equality, so distinct-but-equal scenario
    objects share one group.  The id table keeps a reference to every
    scenario it maps, so an id can never be reused by another object while
    the queue lives.  Each entry carries its push sequence number, which
    orders requests across groups: the queue behaves exactly like one
    push-ordered list from which schedulers remove requests.
    """

    def __init__(self) -> None:
        self._groups: list[Group] = []
        self._by_id: dict[int, tuple["Scenario", Group]] = {}
        self._by_value: dict["Scenario", Group] = {}
        self._pushes = itertools.count()
        self._len = 0

    def append(self, request: "Request") -> None:
        """Queue ``request`` behind everything already queued."""
        scenario = request.scenario
        entry = self._by_id.get(id(scenario))
        if entry is None:
            group = self._by_value.get(scenario)
            if group is None:
                group = self._by_value[scenario] = deque()
                self._groups.append(group)
            self._by_id[id(scenario)] = (scenario, group)
        else:
            group = entry[1]
        group.append((next(self._pushes), request))
        self._len += 1

    def __len__(self) -> int:
        """Number of queued requests."""
        return self._len

    def __iter__(self) -> Iterator["Request"]:
        """Every queued request, in push order."""
        for _, request in heapq.merge(*self._groups):
            yield request

    def popleft(self) -> "Request":
        """Remove and return the oldest queued request."""
        oldest: Group | None = None
        for group in self._groups:
            if group and (oldest is None or group[0][0] < oldest[0][0]):
                oldest = group
        if oldest is None:
            raise IndexError("popleft from an empty RequestQueue")
        self._len -= 1
        return oldest.popleft()[1]

    def groups(self) -> list[Group]:
        """The non-empty scenario groups, the one with the oldest head first."""
        return sorted(
            (group for group in self._groups if group), key=lambda g: g[0][0]
        )

    def take(self, group: Group, n: int) -> tuple["Request", ...]:
        """Remove and return the ``n`` oldest requests of ``group``."""
        if not 0 < n <= len(group):
            raise ValueError(f"cannot take {n} of a {len(group)}-request group")
        self._len -= n
        return tuple(group.popleft()[1] for _ in range(n))


class Scheduler(abc.ABC):
    """Policy interface: turn (queue, idle workers) into dispatches.

    ``assign`` removes dispatched requests from ``queue`` (a
    :class:`RequestQueue`; see the module docstring for its contract and
    for when the simulator calls ``assign``) and may return a finite
    wake-up time (absolute seconds) at which it wants to be called again
    even if no arrival / completion happens before then.
    """

    #: Policy name stamped into the serving report.
    name: ClassVar[str] = "scheduler"

    @abc.abstractmethod
    def assign(
        self,
        now: float,
        queue: RequestQueue,
        idle: list[Worker],
        estimate: EstimateFn,
        draining: bool,
    ) -> tuple[list[Dispatch], float | None]:
        """Decide dispatches at time ``now``; ``draining`` means no more arrivals."""


class FIFOScheduler(Scheduler):
    """First-come first-served, one request per device, fleet order."""

    name = "fifo"

    def assign(self, now, queue, idle, estimate, draining):
        """Pair the head of the queue with idle workers in fleet order."""
        dispatches = []
        for worker in idle:
            if not queue:
                break
            dispatches.append(Dispatch(worker, (queue.popleft(),)))
        return dispatches, None


class SparsityAwareScheduler(Scheduler):
    """Route each request to the idle device that serves its scenario fastest.

    Service-time estimates come from the cached frame model, so scenario
    sparsity (empty-space skipping, pruning) and precision modes shift
    routing exactly as they shift the paper's latency figures: pruned
    INT4/INT8 scenarios land on FlexNeRFer, dense work fills the rest of
    the fleet.
    """

    name = "sparsity-aware"

    def assign(self, now, queue, idle, estimate, draining):
        """Greedily match FIFO-ordered requests to their fastest idle device."""
        free = list(idle)
        dispatches = []
        while queue and free:
            request = queue.popleft()
            best = min(
                free, key=lambda w: (estimate(request, w).latency_s, w.index)
            )
            free.remove(best)
            dispatches.append(Dispatch(best, (request,)))
        return dispatches, None


@dataclass
class BatchDeadlineScheduler(Scheduler):
    """Batch same-scenario requests up to a size / wait / deadline bound.

    A group of queued requests sharing one scenario is dispatched as soon as
    any of these holds: the group reached ``max_batch``; its oldest request
    has waited ``max_wait_s``; its oldest deadline leaves no slack beyond the
    estimated service time; or the stream is draining (no further arrivals
    to batch with).  Otherwise the group is held and a wake-up is requested.
    """

    max_batch: int = 8
    max_wait_s: float = 0.05
    name: ClassVar[str] = "batch-deadline"

    def __post_init__(self) -> None:
        """Validate batching bounds."""
        require_count("max_batch", self.max_batch, 1)
        # An infinite hold would schedule a wake-up at t = inf, which the
        # event loop rejects.
        require_nonnegative("max_wait_s", self.max_wait_s)

    def assign(self, now, queue, idle, estimate, draining):
        """Dispatch ready scenario groups; hold (with a wake-up) the rest.

        Groups are visited oldest head first and batches are taken off each
        group's head, so a call costs O(groups x max_batch) however deep the
        queue is.  Readiness comparisons are written as ``now >= arrival +
        bound`` (never ``now - arrival >= bound``) so they are
        float-consistent with the wake-up times this method returns: a wake
        scheduled at ``arrival + bound`` is guaranteed to find its batch
        ready.
        """
        if not idle:
            return [], None
        free = list(idle)
        dispatches: list[Dispatch] = []
        wake: float | None = None
        for group in queue.groups():
            while free and group:
                batch = [
                    request for _, request in itertools.islice(group, self.max_batch)
                ]
                oldest = batch[0]
                worker = min(
                    free, key=lambda w: (estimate(oldest, w).latency_s, w.index)
                )
                # Latest dispatch time that can still meet the batch's
                # tightest deadline on the chosen worker, for the batch as
                # currently formed (batched service, not single-frame
                # latency).
                deadlines = [
                    r.deadline_s for r in batch if r.deadline_s is not None
                ]
                dispatch_by = (
                    min(deadlines)
                    - worker.device.service_time_s(
                        estimate(oldest, worker).latency_s, len(batch)
                    )
                    if deadlines
                    else None
                )
                ready = (
                    len(batch) >= self.max_batch
                    or now >= oldest.arrival_s + self.max_wait_s
                    or (dispatch_by is not None and now >= dispatch_by)
                    or draining
                )
                if not ready:
                    # Both candidates are > now, or ready would have held.
                    hold_until = oldest.arrival_s + self.max_wait_s
                    if dispatch_by is not None:
                        hold_until = min(hold_until, dispatch_by)
                    wake = hold_until if wake is None else min(wake, hold_until)
                    break  # the rest of this group is younger still
                free.remove(worker)
                dispatches.append(Dispatch(worker, queue.take(group, len(batch))))
        return dispatches, wake
