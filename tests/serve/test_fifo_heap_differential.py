"""Differential fuzz: the heap-scheduled FIFO fast path vs a linear-scan oracle.

The FIFO fast path used to pick each request's worker with a two-pass
linear scan over all k workers: the lowest-indexed worker already free at
the arrival, otherwise the earliest-freeing worker (lowest index on ties).
That loop is kept below, with the ingress admission and shedding it ran
alongside, as an *oracle*.  The production path now finds the same worker
with a busy heap of ``(free time, index)`` and an idle heap of indices;
for every request the two must agree exactly on the worker label, start
and finish time (and shed level), and on which requests are rejected.

The fixed-seed cases cover k in {1, 2, 3, 8, 80}, homogeneous fleets whose
workers free up at equal times, arrivals landing exactly on a worker's
finish time, simultaneous arrivals, a first arrival at 0.0 against the
initial ``busy_until_s`` of 0.0, and 0.7x and 2x load with and without
admission + shedding.  k = 8 and k = 80 fleets are also pinned against the
discrete-event loop.  The budget follows ``REPRO_FUZZ_ITERATIONS`` (see
``test_properties.py``).
"""

import dataclasses
import os
import random
from bisect import bisect_left

import pytest

from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthShedder,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream, Request, Scenario, ScenarioMix
from repro.serve.scheduler import Worker
from repro.sim.sweep import SweepEngine
from tests._differential import assert_fast_path_matches_event_loop

SEED = 20261017
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))

MIX = ScenarioMix(
    scenarios=(
        Scenario("instant-ngp", scene="lego", width=96, height=96),
        Scenario("instant-ngp", scene="mic", width=64, height=64),
        Scenario("tensorf", scene="lego", width=80, height=80),
    ),
    weights=(3.0, 2.0, 1.0),
)
LADDER = DegradationLadder(
    steps=(
        DegradationStep("half-samples", sample_scale=0.5),
        DegradationStep("half-res", resolution_scale=0.5),
    ),
    qualities=(0.9, 0.7),
)
WORKER_COUNTS = (1, 2, 3, 8, 80)
LOADS = (0.7, 2.0)
#: Frame reports are cached per engine; one engine keeps the fuzz cheap.
ENGINE = SweepEngine()


def cap_and_shed(k):
    """Admission at 4 queued requests per worker; one ladder rung per
    queued request per worker below that."""
    return ControlConfig(
        admission=QueueCapAdmission(max_queue=4 * k),
        shedder=QueueDepthShedder(LADDER, depth_per_step=1),
    )


# -- the linear-scan oracle ---------------------------------------------------


def oracle_schedule(simulator, requests):
    """The old two-pass linear scan: ``{request_id: (label, start, finish,
    level)}`` of the admitted requests and the set of rejected ids."""
    control = simulator.control
    session = (
        control.admission.session()
        if control is not None and control.admission is not None
        else None
    )
    shedder = control.shedder if control is not None else None
    workers = [
        Worker(index=i, name=name, device=ENGINE.device(name))
        for i, (name, _) in enumerate(simulator._fleet)
    ]
    k = len(workers)
    rows = {}

    def service_s(scenario, level, worker):
        key = (scenario, level, worker.name)
        if key not in rows:
            served = LADDER.apply(scenario, level) if level else scenario
            estimate = simulator._estimate_scenario(served, worker)
            rows[key] = worker.device.service_time_s(estimate.latency_s, 1)
        return rows[key]

    free = [w.busy_until_s for w in workers]
    starts = []
    admitted = 0
    schedule = {}
    rejected = set()
    for request in sorted(requests, key=lambda r: (r.arrival_s, r.request_id)):
        arrival = request.arrival_s
        depth = admitted - bisect_left(starts, arrival)
        if session is not None and not session.admit(arrival, depth):
            rejected.add(request.request_id)
            continue
        level = (
            shedder.level(depth, k)
            if shedder is not None and request.degradable
            else 0
        )
        chosen = -1
        for j in range(k):
            if free[j] <= arrival:
                chosen = j
                start = arrival
                break
        if chosen < 0:
            chosen = 0
            start = free[0]
            for j in range(1, k):
                if free[j] < start:
                    start = free[j]
                    chosen = j
        finish = start + service_s(request.scenario, level, workers[chosen])
        free[chosen] = finish
        starts.append(start)
        admitted += 1
        schedule[request.request_id] = (workers[chosen].label, start, finish, level)
    return schedule, rejected


def assert_heap_matches_oracle(simulator, requests, context):
    report = simulator.run(requests)
    schedule, rejected = oracle_schedule(simulator, requests)
    got = {
        r.request.request_id: (r.worker, r.start_s, r.finish_s, r.shed_level)
        for r in report.completed
    }
    assert got == schedule, context
    assert {r.request.request_id for r in report.rejected} == rejected, context
    return report


# -- stream shapes -------------------------------------------------------------


def capacity_rps(devices):
    """Requests per second the fleet serves on MIX at full quality."""
    total = sum(MIX.weights)
    rate = 0.0
    for name in devices:
        worker = Worker(index=0, name=name, device=ENGINE.device(name))
        mean_s = sum(
            weight
            * worker.device.service_time_s(
                ENGINE.frame_report(
                    name, s.model, config=s.frame_config()
                ).latency_s,
                1,
            )
            for s, weight in zip(MIX.scenarios, MIX.weights)
        ) / total
        rate += 1.0 / mean_s
    return rate


def poisson(devices, load, count, seed):
    rate = load * capacity_rps(devices)
    return list(PoissonStream(rate, count / rate, MIX, sla_s=0.5).generate(seed))


def simultaneous(devices, load, count, seed):
    """Poisson arrivals snapped to a coarse grid, the first one at 0.0."""
    requests = poisson(devices, load, count, seed)
    if not requests:
        return requests
    grid = 3.0 / capacity_rps(devices)
    snapped = [
        dataclasses.replace(r, arrival_s=(r.arrival_s // grid) * grid)
        for r in requests
    ]
    snapped[0] = dataclasses.replace(snapped[0], arrival_s=0.0)
    return snapped


def echoed(devices, load, count, seed, simulator):
    """Poisson arrivals plus extra arrivals at exactly some finish times.

    A later arrival cannot change an earlier FIFO decision, so the extra
    request at the earliest chosen finish time meets a worker whose free
    time equals its arrival bit for bit.  New ids are appended out of
    arrival order.
    """
    requests = poisson(devices, load, count, seed)
    schedule, _ = oracle_schedule(simulator, requests)
    finishes = sorted(entry[2] for entry in schedule.values())
    rng = random.Random(seed)
    picks = sorted(rng.sample(finishes, min(len(finishes), 5)))
    scenario = MIX.scenarios[0]
    extra = [
        Request(request_id=len(requests) + i, arrival_s=t, scenario=scenario)
        for i, t in enumerate(picks)
    ]
    return requests + extra


def lockstep(devices, rounds, rng):
    """A homogeneous fleet fed one scenario in rounds at exact finish times.

    Every worker has the same service time ``s``; round ``r`` arrives at
    ``0.0 + s + ... + s`` (r terms), the same float sum a worker busy since
    0.0 reaches, so arrivals land on finish times and many workers free up
    at once.  Round sizes straddle the fleet size to mix idle and queued
    dispatch.
    """
    scenario = MIX.scenarios[0]
    name = devices[0]
    worker = Worker(index=0, name=name, device=ENGINE.device(name))
    step = worker.device.service_time_s(
        ENGINE.frame_report(name, scenario.model, config=scenario.frame_config()).latency_s,
        1,
    )
    k = len(devices)
    requests = []
    t = 0.0
    for _ in range(rounds):
        for _ in range(rng.randint(max(1, k - 1), k + 2)):
            requests.append(
                Request(request_id=len(requests), arrival_s=t, scenario=scenario)
            )
        t = t + step
    return requests


# -- the fuzz ------------------------------------------------------------------


def random_case(rng):
    k = rng.choice(WORKER_COUNTS)
    if rng.random() < 0.5:
        devices = (rng.choice(("flexnerfer", "neurex")),) * k
    else:
        devices = tuple(rng.choice(("flexnerfer", "neurex")) for _ in range(k))
    load = rng.choice(LOADS)
    control = cap_and_shed(k) if rng.random() < 0.5 else None
    simulator = FleetSimulator(devices, engine=ENGINE, control=control)
    count = max(40, 5 * k)
    seed = rng.randrange(1 << 30)
    shape = rng.choice(("poisson", "simultaneous", "echoed", "lockstep"))
    if shape == "poisson":
        requests = poisson(devices, load, count, seed)
    elif shape == "simultaneous":
        requests = simultaneous(devices, load, count, seed)
    elif shape == "echoed":
        requests = echoed(devices, load, count, seed, simulator)
    else:
        devices = (devices[0],) * k
        simulator = FleetSimulator(devices, engine=ENGINE, control=control)
        requests = lockstep(devices, rng.randint(2, 8), rng)
    context = (k, devices[:3], load, control is not None, shape, seed)
    return simulator, requests, context


def test_heap_fast_path_matches_linear_scan_oracle():
    rng = random.Random(SEED)
    shapes = set()
    for _ in range(max(20, ITERATIONS // 2)):
        simulator, requests, context = random_case(rng)
        assert_heap_matches_oracle(simulator, requests, context)
        shapes.add(context[4])
    assert shapes == {"poisson", "simultaneous", "echoed", "lockstep"}


@pytest.mark.parametrize("k", WORKER_COUNTS)
@pytest.mark.parametrize("controlled", [False, True], ids=["fifo", "fifo+cap+shed"])
def test_every_fleet_size_and_load(k, controlled):
    for load in LOADS:
        for devices in (("flexnerfer",) * k, ("neurex", "flexnerfer") * k):
            devices = devices[:k]
            simulator = FleetSimulator(
                devices, engine=ENGINE, control=cap_and_shed(k) if controlled else None
            )
            requests = simultaneous(devices, load, max(60, 6 * k), seed=k)
            report = assert_heap_matches_oracle(
                simulator, requests, (k, load, devices[:2])
            )
            if controlled and load > 1.0 and k > 1:
                assert report.shed_requests > 0


@pytest.mark.parametrize("k", (1, 3, 8, 80))
def test_lockstep_arrivals_on_exact_finish_times(k):
    rng = random.Random(SEED + k)
    for controlled in (False, True):
        devices = ("flexnerfer",) * k
        simulator = FleetSimulator(
            devices, engine=ENGINE, control=cap_and_shed(k) if controlled else None
        )
        requests = lockstep(devices, 6, rng)
        report = assert_heap_matches_oracle(simulator, requests, (k, controlled))
        # Some request starts at its arrival on a worker that freed up at
        # exactly that instant.
        finishes = {r.finish_s for r in report.completed}
        assert any(
            r.start_s == r.request.arrival_s and r.start_s in finishes
            for r in report.completed
        )


@pytest.mark.parametrize("k", (8, 80))
@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("controlled", [False, True], ids=["fifo", "fifo+cap+shed"])
def test_wide_fleets_match_the_event_loop(k, load, controlled):
    devices = ("flexnerfer", "neurex") * (k // 2)
    simulator = FleetSimulator(
        devices,
        engine=ENGINE,
        control=cap_and_shed(k) if controlled else None,
        default_sla_s=0.3,
    )
    for requests in (
        poisson(devices, load, 6 * k, seed=k),
        simultaneous(devices, load, 6 * k, seed=k + 1),
    ):
        assert_fast_path_matches_event_loop(
            simulator, requests, (k, load, controlled)
        )
