"""The simulator's per-run service table and its ingress contract.

Every simulation path resolves service times through one table per run,
keyed by (scenario, shed level): an event-loop or fast-path run over S
scenarios on k workers makes at most S x k x (L + 1) engine lookups for an
L-step degradation ladder (S x k without shedding), however many requests
it serves.  The counts below come from a counting engine, not a clock.

Ingress rejects non-finite arrival times on every path with the same
one-line ``ValueError``; without that check the event loop never drains a
NaN arrival, so those tests run under an alarm that turns a hang into a
failure.
"""

import dataclasses

import pytest

from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthAutoscaler,
    QueueDepthShedder,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream, Scenario, ScenarioMix
from repro.serve.scheduler import (
    BatchDeadlineScheduler,
    FIFOScheduler,
    SparsityAwareScheduler,
)
from repro.sim.sweep import SweepEngine
from tests._timeouts import fails_within

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
        DegradationStep("quarter-res", resolution_scale=0.25),
    ),
    qualities=(0.9, 0.7, 0.5),
)
FLEET = ("flexnerfer", "neurex", "flexnerfer")
SHED = QueueDepthShedder(LADDER, depth_per_step=2)


class CountingEngine(SweepEngine):
    """A sweep engine that counts ``frame_report`` lookups."""

    def __init__(self) -> None:
        super().__init__()
        self.lookups = 0

    def frame_report(self, *args, **kwargs):
        self.lookups += 1
        return super().frame_report(*args, **kwargs)


#: (label, scheduler, control, takes the fast path)
CONFIGS = (
    ("sparsity-aware", SparsityAwareScheduler(), None, False),
    ("batch-deadline", BatchDeadlineScheduler(4, 0.02), None, False),
    (
        "batch-deadline+shed",
        BatchDeadlineScheduler(4, 0.02),
        ControlConfig(shedder=SHED),
        False,
    ),
    (
        "fifo+autoscale+shed",
        FIFOScheduler(),
        ControlConfig(
            shedder=SHED,
            autoscaler=QueueDepthAutoscaler(scale_out_depth=3, min_workers=1),
        ),
        False,
    ),
    ("fifo", FIFOScheduler(), None, True),
    (
        "fifo+cap+shed",
        FIFOScheduler(),
        ControlConfig(admission=QueueCapAdmission(max_queue=40), shedder=SHED),
        True,
    ),
)


@pytest.mark.parametrize(
    "scheduler,control,fast",
    [config[1:] for config in CONFIGS],
    ids=[config[0] for config in CONFIGS],
)
def test_engine_lookups_are_bounded_by_the_service_table(
    scheduler, control, fast, monkeypatch
):
    levels = LADDER.depth + 1 if control is not None and control.shedder else 1
    bound = len(MIX.scenarios) * len(FLEET) * levels

    def bomb(self, request, worker):  # pragma: no cover - must not run
        raise AssertionError("the simulation called FleetSimulator.estimate")

    monkeypatch.setattr(FleetSimulator, "estimate", bomb)
    # Overloaded (~3x what the fleet serves) so queues build and, with a
    # shedder, deep ladder levels are served.
    for duration_s in (0.2, 2.0):
        engine = CountingEngine()
        simulator = FleetSimulator(
            FLEET, scheduler=scheduler, engine=engine, control=control
        )
        if fast:
            monkeypatch.setattr(simulator, "_run_event_loop", bomb)
        else:
            monkeypatch.setattr(simulator, "_run_fifo", bomb)
        stream = PoissonStream(1500.0, duration_s, MIX, sla_s=0.2)
        report = simulator.run(stream.generate(seed=5))
        assert report.completed_requests > 100
        assert 0 < engine.lookups <= bound, (duration_s, engine.lookups, bound)
        if levels > 1 and duration_s > 1.0:
            assert report.shed_requests > 0


def poisoned(arrival_s):
    """A small stream with one request's arrival replaced by ``arrival_s``."""
    requests = list(PoissonStream(60.0, 1.0, MIX, sla_s=0.2).generate(seed=1))
    requests[len(requests) // 2] = dataclasses.replace(
        requests[len(requests) // 2], arrival_s=arrival_s
    )
    return requests


@pytest.mark.parametrize("arrival_s", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "scheduler,control",
    [
        (SparsityAwareScheduler(), None),  # event loop
        (BatchDeadlineScheduler(), None),  # event loop
        (FIFOScheduler(), None),  # fast path
        (FIFOScheduler(), ControlConfig(shedder=SHED)),  # controlled fast path
    ],
    ids=["sparsity-aware", "batch-deadline", "fifo", "fifo+shed"],
)
def test_non_finite_arrivals_are_rejected_at_ingress(arrival_s, scheduler, control):
    simulator = FleetSimulator(
        FLEET, scheduler=scheduler, engine=SweepEngine(), control=control
    )
    requests = poisoned(arrival_s)
    with fails_within(20.0):
        with pytest.raises(ValueError, match="arrival_s must be finite") as error:
            simulator.run(requests)
    assert "\n" not in str(error.value)


def test_event_loop_and_fast_path_share_the_ingress_error():
    requests = poisoned(float("nan"))
    messages = []
    simulator = FleetSimulator(FLEET, engine=SweepEngine())
    for path in (simulator.run, simulator._run_event_loop):
        with fails_within(20.0):
            with pytest.raises(ValueError) as error:
                path(requests)
        messages.append(str(error.value))
    assert messages[0] == messages[1]
