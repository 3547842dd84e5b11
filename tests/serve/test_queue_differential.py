"""Differential fuzz: the schedulers on :class:`RequestQueue` vs list oracles.

The schedulers used to keep the queue as one push-ordered ``list``: FIFO
and sparsity-aware popped its head with ``pop(0)``, and batch-deadline
regrouped the whole list by scenario on every call and rebuilt it without
the dispatched occurrences.  Those list-based bodies are kept below,
verbatim apart from the surrounding class, as *oracles*.  A fixed-seed
random stream drives each production scheduler and its oracle side by side
through rounds of appends and ``assign`` calls, and every round must agree
exactly: the dispatch sequence (worker and request objects), the wake-up
time, and the order of the requests left queued.

The stream covers several scenarios, distinct-but-equal scenario objects,
one request object queued twice, ``None`` deadlines, ``draining=True``,
``max_wait_s=0``, ``max_batch=1`` and calls with no idle worker.  The
budget follows ``REPRO_FUZZ_ITERATIONS`` (see ``test_properties.py``).
"""

import os
import random
from collections import Counter

from repro.core.device import get_device
from repro.serve.request import Request, Scenario
from repro.serve.scheduler import (
    BatchDeadlineScheduler,
    Dispatch,
    FIFOScheduler,
    RequestQueue,
    ServiceEstimate,
    SparsityAwareScheduler,
    Worker,
)

SEED = 20261016
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

LEGO = Scenario("instant-ngp", width=96, height=96)
LEGO_TWIN = Scenario("instant-ngp", width=96, height=96)  # equal, not identical
MIC = Scenario("instant-ngp", scene="mic", width=64, height=64)
TENSORF = Scenario("tensorf", width=80, height=80)
SCENARIOS = (LEGO, LEGO_TWIN, MIC, TENSORF)
DEVICES = ("flexnerfer", "neurex", "flexnerfer")


# -- the list-based oracles ---------------------------------------------------


class OracleFIFO:
    def assign(self, now, queue, idle, estimate, draining):
        dispatches = []
        for worker in idle:
            if not queue:
                break
            dispatches.append(Dispatch(worker, (queue.pop(0),)))
        return dispatches, None


class OracleSparsityAware:
    def assign(self, now, queue, idle, estimate, draining):
        free = list(idle)
        dispatches = []
        while queue and free:
            request = queue.pop(0)
            best = min(
                free, key=lambda w: (estimate(request, w).latency_s, w.index)
            )
            free.remove(best)
            dispatches.append(Dispatch(best, (request,)))
        return dispatches, None


class OracleBatchDeadline:
    def __init__(self, max_batch, max_wait_s):
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s

    def assign(self, now, queue, idle, estimate, draining):
        free = list(idle)
        dispatches = []
        wake = None
        dispatched = Counter()
        groups = {}
        for request in queue:
            groups.setdefault(request.scenario, []).append(request)
        for group in groups.values():
            index = 0
            while free and index < len(group):
                batch = group[index : index + self.max_batch]
                oldest = batch[0]
                worker = min(
                    free, key=lambda w: (estimate(oldest, w).latency_s, w.index)
                )
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
                    hold_until = oldest.arrival_s + self.max_wait_s
                    if dispatch_by is not None:
                        hold_until = min(hold_until, dispatch_by)
                    wake = hold_until if wake is None else min(wake, hold_until)
                    break
                free.remove(worker)
                dispatched.update(id(request) for request in batch)
                dispatches.append(Dispatch(worker, tuple(batch)))
                index += len(batch)
        if dispatched:
            remaining = []
            for request in queue:
                if dispatched.get(id(request), 0) > 0:
                    dispatched[id(request)] -= 1
                else:
                    remaining.append(request)
            queue[:] = remaining
        return dispatches, wake


# -- the fuzz -----------------------------------------------------------------


def random_pair(rng):
    """One production scheduler and its oracle, with random bounds."""
    kind = rng.randrange(3)
    if kind == 0:
        return FIFOScheduler(), OracleFIFO()
    if kind == 1:
        return SparsityAwareScheduler(), OracleSparsityAware()
    max_batch = rng.choice((1, 2, 3, 5, 8))
    max_wait_s = rng.choice((0.0, rng.uniform(0.001, 0.05)))
    return (
        BatchDeadlineScheduler(max_batch, max_wait_s),
        OracleBatchDeadline(max_batch, max_wait_s),
    )


def random_estimate(rng, workers):
    """A fake estimate table; latencies are coarse so ties occur."""
    latency = {
        (scenario, worker.index): rng.choice((0.005, 0.01, 0.02, 0.04))
        for scenario in SCENARIOS
        for worker in workers
    }

    def estimate(request, worker):
        return ServiceEstimate(latency[(request.scenario, worker.index)], 1.0)

    return estimate


def outcome(dispatches, wake):
    """A dispatch sequence and wake, by worker index and request identity."""
    return (
        [(d.worker.index, [id(r) for r in d.requests]) for d in dispatches],
        wake,
    )


def test_schedulers_match_list_oracles():
    rng = random.Random(SEED)
    devices = {name: get_device(name) for name in set(DEVICES)}
    workers = [
        Worker(index=i, name=name, device=devices[name])
        for i, name in enumerate(DEVICES)
    ]
    seen = Counter()
    for iteration in range(ITERATIONS):
        scheduler, oracle = random_pair(rng)
        estimate = random_estimate(rng, workers)
        queue = RequestQueue()
        reference = []
        created = []
        now = 0.0
        rounds = rng.randint(1, 12)
        for round_index in range(rounds):
            for _ in range(rng.randint(0, 6)):
                if created and rng.random() < 0.1:
                    request = rng.choice(created)  # queued a second time
                    seen["duplicate"] += 1
                else:
                    now += rng.choice((0.0, rng.uniform(0.0, 0.02)))
                    deadline = (
                        now + rng.uniform(0.005, 0.1) if rng.random() < 0.6 else None
                    )
                    request = Request(
                        len(created), now, rng.choice(SCENARIOS), deadline_s=deadline
                    )
                    created.append(request)
                queue.append(request)
                reference.append(request)
            now += rng.uniform(0.0, 0.03)
            idle = [w for w in workers if rng.random() < 0.6]
            draining = round_index == rounds - 1 or rng.random() < 0.1
            got = scheduler.assign(now, queue, idle, estimate, draining)
            want = oracle.assign(now, reference, list(idle), estimate, draining)
            context = f"iteration {iteration} round {round_index}: {scheduler}"
            assert outcome(*got) == outcome(*want), context
            assert len(queue) == len(reference), context
            assert [id(r) for r in queue] == [id(r) for r in reference], context
            seen["dispatch"] += bool(got[0])
            seen["wake"] += got[1] is not None
            seen["no idle"] += not idle
    # The stream must reach every case it claims to cover.
    assert min(seen[case] for case in ("duplicate", "dispatch", "wake", "no idle")) > 0
