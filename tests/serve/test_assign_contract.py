"""The event loop calls ``Scheduler.assign`` only when it can act.

:mod:`repro.serve.scheduler` documents the call contract: ``assign`` runs
only when the queue is non-empty and at least one active worker is idle,
it must remove exactly the requests it dispatches, and any wake-up time it
returns must be finite.  Each built-in policy's ``assign`` is wrapped on a
fixed seed-0 Poisson stream on the two-worker fleet the serve-event-loop
benchmark uses (sparsity-aware, batch-deadline and FIFO + autoscaler, at
0.7x and 2x its capacity) and every call is checked against the first
half of the contract.  The call counts are pinned, and so are the report
digests: they were taken from the loop that still called ``assign`` on
every event, so skipping the calls that cannot act changes no result.
The digest covers the report's JSON summary and the completed log.

The other two clauses are exercised by deliberately broken schedulers:
one that dispatches requests without removing them from the queue (it
used to make ``run`` loop forever) and ones that return a non-finite
wake-up time (``inf`` used to put NaN into ``mean_active_workers``).
"""

import hashlib
import json
import math

import pytest

from repro.plan.space import REFERENCE_MIX
from repro.serve.control import ControlConfig, QueueDepthAutoscaler
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream
from repro.serve.scheduler import (
    BatchDeadlineScheduler,
    Dispatch,
    FIFOScheduler,
    Scheduler,
    SparsityAwareScheduler,
)
from repro.sim.sweep import SweepEngine
from tests._timeouts import fails_within

FLEET = ("flexnerfer", "neurex")
CAPACITY_RPS = 40.68
REQUESTS = 500
SLA_S = 0.25
LOADS = {"nominal": 0.7, "overload": 2.0}

AUTOSCALE = ControlConfig(
    autoscaler=QueueDepthAutoscaler(scale_out_depth=4, min_workers=1, max_workers=2)
)
POLICIES = {
    "sparsity-aware": (SparsityAwareScheduler, None),
    "batch-deadline": (lambda: BatchDeadlineScheduler(8, 0.05), None),
    "fifo+autoscale": (FIFOScheduler, AUTOSCALE),
}

#: (assign calls, report digest) per (policy, load).  Calling ``assign`` on
#: every event took 998, 998, 984, 571, 1363 and 1240 calls on these cases.
PINNED = {
    ("sparsity-aware", "nominal"): (
        499,
        "565c280c2c3e93803c819effa7cd1cbb7c149c64812aa577915a3d617433f42b",
    ),
    ("sparsity-aware", "overload"): (
        499,
        "b16f449899773f8e963c671f29dc07401cf2d22adddf9d547892b26126cfc2b6",
    ),
    ("batch-deadline", "nominal"): (
        661,
        "a2d2498250701c3f3d685d031d562733bc61ff18d93e28771906176426a94538",
    ),
    ("batch-deadline", "overload"): (
        75,
        "8e79bf21a95eb8babee0534fd58d7f0455f95008688349bc317c83db291da742",
    ),
    ("fifo+autoscale", "nominal"): (
        499,
        "517f1c881987013f6699f76171e5fa11e5208bc3707d0af2e10d851c708ce525",
    ),
    ("fifo+autoscale", "overload"): (
        499,
        "2c761a5cf0fc2f88697598205dca21961bd53dafb06667227caae3c54ed09301",
    ),
}


@pytest.fixture(scope="module")
def engine():
    return SweepEngine()


def digest(report):
    """SHA-256 of the report's summary and its completed log."""
    log = [
        (
            c.request.request_id,
            c.worker,
            c.start_s,
            c.finish_s,
            c.batch_size,
            c.energy_j,
            c.shed_level,
            c.quality,
        )
        for c in report.completed
    ]
    text = json.dumps([report.to_dict(), log], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def stream(load):
    rate = CAPACITY_RPS * LOADS[load]
    return PoissonStream(rate, REQUESTS / rate, REFERENCE_MIX, sla_s=SLA_S)


def run_recorded(policy, load, engine):
    """Run one case with ``assign`` wrapped; the report and every call's view."""
    make, control = POLICIES[policy]
    scheduler = make()
    inner = scheduler.assign
    calls = []

    def assign(now, queue, idle, estimate, draining):
        calls.append((len(queue), len(idle)))
        return inner(now, queue, idle, estimate, draining)

    scheduler.assign = assign
    simulator = FleetSimulator(FLEET, scheduler=scheduler, engine=engine, control=control)
    report = simulator.run(stream(load).generate(seed=0))
    return report, calls


@pytest.mark.parametrize("load", LOADS)
@pytest.mark.parametrize("policy", POLICIES)
def test_assign_is_called_only_when_it_can_act(policy, load, engine):
    report, calls = run_recorded(policy, load, engine)
    assert calls
    assert all(queued > 0 and idle > 0 for queued, idle in calls)
    assert report.completed_requests == report.num_requests
    assert (len(calls), digest(report)) == PINNED[(policy, load)]


class Forgetful(Scheduler):
    """Dispatches the queue's head requests without removing them."""

    name = "forgetful"

    def assign(self, now, queue, idle, estimate, draining):
        return [Dispatch(w, (r,)) for w, r in zip(idle, list(queue))], None


class Waker(Scheduler):
    """FIFO that also asks for a wake-up at a fixed time."""

    name = "waker"

    def __init__(self, wake):
        self.wake = wake

    def assign(self, now, queue, idle, estimate, draining):
        return FIFOScheduler().assign(now, queue, idle, estimate, draining)[0], self.wake


def test_dispatching_without_dequeuing_raises_instead_of_hanging(engine):
    requests = stream("nominal").generate(seed=0)[:20]
    simulator = FleetSimulator(FLEET, scheduler=Forgetful(), engine=engine)
    with fails_within(20.0):
        with pytest.raises(RuntimeError) as error:
            simulator.run(requests)
    assert str(error.value) == (
        "scheduler 'forgetful' dispatched 1 requests but removed 0 from the queue"
    )


@pytest.mark.parametrize("wake", (math.inf, math.nan), ids=repr)
def test_a_non_finite_wake_up_is_rejected(wake, engine):
    requests = stream("nominal").generate(seed=0)[:20]
    simulator = FleetSimulator(FLEET, scheduler=Waker(wake), engine=engine)
    with fails_within(20.0):
        with pytest.raises(ValueError) as error:
            simulator.run(requests)
    assert str(error.value) == (
        f"scheduler 'waker' returned a non-finite wake-up time {wake!r}"
    )
