"""Generation, control and planner inputs fail loudly with one-line errors.

Every rate, duration, period and SLA budget of the request streams, the
simulator's ``default_sla_s``, the control plane's tick and latency target,
the token bucket's rate and the planner's traffic envelope go through one
shared guard, :func:`repro.validate.require_positive`.  A plain
``x <= 0`` test lets NaN through: ``PoissonStream(rate_rps=nan)`` or
``duration_s=inf`` used to make ``generate()`` loop forever,
``default_sla_s=nan`` silently reported 0 % attainment, an autoscaled run
with ``tick_s=nan`` never finished and ``TokenBucketAdmission(rate_rps=nan)``
admitted every request.  Each case below therefore runs under an alarm that
turns a hang into a failure.

Every integer count knob (worker bounds, queue caps, batch sizes, session
and burst counts) goes through the sibling guard
:func:`repro.validate.require_count`: a plain ``x < 1`` test let NaN,
infinity and 2.5 through, and ``QueueDepthAutoscaler(min_workers=nan)``
hung an autoscaled run.

Simulator ingress also rejects a repeated request id, with the same error
on the event loop and the FIFO fast path: served twice, a duplicate would
break the offered = completed + rejected id partition.

A batch-deadline scheduler's ``max_wait_s`` must be finite (and may be
0): an infinite hold scheduled a wake-up at ``t = inf``, and an autoscaled
run reported ``mean_active_workers: nan``.

A trace's arrival times must be finite: ``TraceStream([0.1, nan, 0.3])``
passed both the ordering and the sign check (every comparison with NaN is
false) and failed only later, inside the simulator.  A scenario's width
and height must be integers: ``Scenario(width=2.5)`` and
``Scenario(width=True)`` used to be accepted.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.plan.space import TrafficSpec
from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    LatencyTargetAutoscaler,
    QueueCapAdmission,
    QueueDepthAutoscaler,
    QueueDepthShedder,
    TokenBucketAdmission,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.request import (
    DiurnalStream,
    PoissonStream,
    Scenario,
    ScenarioMix,
    TraceStream,
)
from repro.serve.scheduler import BatchDeadlineScheduler, FIFOScheduler
from repro.serve.traffic import (
    FlashCrowdStream,
    MarkedBurstStream,
    MultiTenantStream,
    SessionStream,
    TenantSpec,
)
from repro.sim.sweep import SweepEngine
from repro.validate import require_count, require_nonnegative, require_positive
from tests._timeouts import fails_within

MIX = ScenarioMix(
    scenarios=(
        Scenario("instant-ngp", scene="lego", width=64, height=64),
        Scenario("tensorf", scene="lego", width=64, height=64),
    ),
    weights=(2.0, 1.0),
)

NAN, INF = math.nan, math.inf
BAD_VALUES = (NAN, INF, -INF, 0.0, -1.0)

#: A value every input below accepts.
GOOD = 25.0

#: (label, stream built around one input value): each must raise ValueError
#: on a bad value and generate normally on ``GOOD``.
STREAM_CASES = (
    ("poisson.rate_rps", lambda v: PoissonStream(v, 1.0, MIX)),
    ("poisson.duration_s", lambda v: PoissonStream(10.0, v, MIX)),
    ("poisson.sla_s", lambda v: PoissonStream(10.0, 1.0, MIX, sla_s=v)),
    ("diurnal.base_rps", lambda v: DiurnalStream(v, 40.0, 5.0, 1.0, MIX)),
    ("diurnal.peak_rps", lambda v: DiurnalStream(5.0, v, 5.0, 1.0, MIX)),
    ("diurnal.period_s", lambda v: DiurnalStream(5.0, 40.0, v, 1.0, MIX)),
    ("diurnal.duration_s", lambda v: DiurnalStream(5.0, 40.0, 5.0, v, MIX)),
    ("diurnal.sla_s", lambda v: DiurnalStream(5.0, 40.0, 5.0, 1.0, MIX, sla_s=v)),
    ("flash-crowd.base_rps", lambda v: FlashCrowdStream(v, 40.0, 1.0, MIX)),
    ("flash-crowd.burst_rps", lambda v: FlashCrowdStream(5.0, v, 1.0, MIX)),
    ("flash-crowd.duration_s", lambda v: FlashCrowdStream(5.0, 40.0, v, MIX)),
    ("marked-burst.immigrant_rps", lambda v: MarkedBurstStream(v, 1.0, MIX)),
    ("marked-burst.duration_s", lambda v: MarkedBurstStream(5.0, v, MIX)),
    ("marked-burst.decay_s", lambda v: MarkedBurstStream(5.0, 1.0, MIX, decay_s=v)),
    ("tenant.rate_rps", lambda v: MultiTenantStream((TenantSpec("a", v, MIX),), 1.0)),
    (
        "tenant.sla_s",
        lambda v: MultiTenantStream((TenantSpec("a", 5.0, MIX, sla_s=v),), 1.0),
    ),
    (
        "multi-tenant.duration_s",
        lambda v: MultiTenantStream((TenantSpec("a", 5.0, MIX),), duration_s=v),
    ),
    ("session.fps", lambda v: SessionStream(MIX, 2, 3, fps=v)),
    ("session.sla_s", lambda v: SessionStream(MIX, 2, 3, sla_s=v)),
    (
        "mix.weights",
        lambda v: PoissonStream(10.0, 1.0, ScenarioMix(MIX.scenarios, (1.0, v))),
    ),
)


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
@pytest.mark.parametrize(
    "build", [case[1] for case in STREAM_CASES], ids=[case[0] for case in STREAM_CASES]
)
def test_bad_generation_inputs_raise_one_line_errors(build, value):
    with fails_within(10.0):
        with pytest.raises(ValueError) as error:
            # Were the constructor to accept the value, generating would
            # hang (NaN rate, infinite horizon) or yield nonsense.
            build(value).generate(seed=0)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "build", [case[1] for case in STREAM_CASES], ids=[case[0] for case in STREAM_CASES]
)
def test_each_case_is_valid_apart_from_the_bad_value(build):
    with fails_within(10.0):
        requests = build(GOOD).generate(seed=0)
    assert requests
    assert all(math.isfinite(r.arrival_s) for r in requests)


def run_autoscaled(tick_s):
    """One autoscaled run; a NaN tick that got through would never finish it."""
    requests = PoissonStream(10.0, 1.0, MIX, sla_s=0.2).generate(seed=0)
    control = ControlConfig(autoscaler=QueueDepthAutoscaler(), tick_s=tick_s)
    return FleetSimulator(
        ("flexnerfer",), engine=SweepEngine(), control=control
    ).run(requests)


def run_batched_autoscaled(max_wait_s):
    """A batch-deadline, autoscaled run with no SLA: nothing bounds the hold.

    An infinite ``max_wait_s`` used to schedule a wake-up at ``t = inf``,
    and the run reported ``mean_active_workers: nan``.
    """
    requests = PoissonStream(10.0, 1.0, MIX).generate(seed=0)
    control = ControlConfig(autoscaler=QueueDepthAutoscaler())
    return FleetSimulator(
        ("flexnerfer", "neurex"),
        scheduler=BatchDeadlineScheduler(8, max_wait_s),
        engine=SweepEngine(),
        control=control,
    ).run(requests)


#: (label, control-plane, planner or stream input exercised with one value):
#: each must raise ValueError on a non-finite value and accept ``GOOD``.
CONTROL_CASES = (
    ("control.tick_s", run_autoscaled),
    ("batch-deadline.max_wait_s", run_batched_autoscaled),
    ("control.provision_delay_s", lambda v: ControlConfig(provision_delay_s=v)),
    ("latency-target.p95_s", lambda v: LatencyTargetAutoscaler(target_p95_s=v)),
    ("token-bucket.rate_rps", lambda v: TokenBucketAdmission(rate_rps=v)),
    ("token-bucket.burst", lambda v: TokenBucketAdmission(rate_rps=5.0, burst=v)),
    ("traffic.rate_rps", lambda v: TrafficSpec(MIX, v, 1.0, 100.0)),
    ("traffic.duration_s", lambda v: TrafficSpec(MIX, 5.0, v, 100.0)),
    ("traffic.sla_ms", lambda v: TrafficSpec(MIX, 5.0, 1.0, v)),
    # 0 is a valid spread (all sessions start together), so only the
    # non-finite values apply: NaN used to start every session at 0.0.
    (
        "session.start_spread_s",
        lambda v: SessionStream(MIX, 2, 3, start_spread_s=v).generate(seed=0),
    ),
)

#: The values a plain ``x <= 0`` / ``x < lower`` guard let through.
NON_FINITE = (NAN, INF)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize(
    "build",
    [case[1] for case in CONTROL_CASES],
    ids=[case[0] for case in CONTROL_CASES],
)
def test_non_finite_control_inputs_raise_one_line_errors(build, value):
    with fails_within(10.0):
        with pytest.raises(ValueError) as error:
            build(value)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "build",
    [case[1] for case in CONTROL_CASES],
    ids=[case[0] for case in CONTROL_CASES],
)
def test_each_control_case_is_valid_apart_from_the_bad_value(build):
    with fails_within(10.0):
        assert build(GOOD) is not None


def test_batched_autoscaled_report_is_finite():
    report = run_batched_autoscaled(0.05)
    summary = report.to_dict()
    assert all(math.isfinite(v) for v in summary.values() if isinstance(v, float))


@pytest.mark.parametrize("value", (NAN, INF, -INF, -1.0), ids=repr)
def test_batch_deadline_max_wait_must_be_finite_and_non_negative(value):
    with pytest.raises(ValueError) as error:
        BatchDeadlineScheduler(8, value)
    assert str(error.value) == f"max_wait_s must be finite and >= 0, got {value!r}"


def test_weight_total_overflow_is_rejected():
    with pytest.raises(ValueError, match="total scenario weight"):
        ScenarioMix(MIX.scenarios, (1e308, 1e308))


class TestRequirePositive:
    def test_returns_valid_values(self):
        assert require_positive("x", 0.5) == 0.5
        assert require_positive("x", 3) == 3

    @pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
    def test_names_the_input_and_value(self, value):
        with pytest.raises(ValueError) as error:
            require_positive("rate_rps", value)
        assert str(error.value) == (
            f"rate_rps must be positive and finite, got {value!r}"
        )


class TestRequireNonnegative:
    def test_returns_valid_values(self):
        assert require_nonnegative("x", 0.0) == 0.0
        assert require_nonnegative("x", 0) == 0
        assert require_nonnegative("x", 2.5) == 2.5

    @pytest.mark.parametrize("value", (NAN, INF, -INF, -1.0, -1), ids=repr)
    def test_names_the_input_and_value(self, value):
        with pytest.raises(ValueError) as error:
            require_nonnegative("max_age_s", value)
        assert str(error.value) == f"max_age_s must be finite and >= 0, got {value!r}"


def run_autoscaled_with(min_workers):
    """One autoscaled run; a NaN worker floor that got through hung it."""
    requests = PoissonStream(10.0, 1.0, MIX, sla_s=0.2).generate(seed=0)
    autoscaler = QueueDepthAutoscaler(min_workers=min_workers)
    return FleetSimulator(
        ("flexnerfer",),
        engine=SweepEngine(),
        control=ControlConfig(autoscaler=autoscaler),
    ).run(requests)


#: (label, input exercised with one value, lowest valid value): each must
#: raise ValueError on a non-integer or too-small count and accept ``low``.
COUNT_CASES = (
    ("autoscaler.min_workers", run_autoscaled_with, 1),
    ("autoscaler.max_workers", lambda v: QueueDepthAutoscaler(max_workers=v), 1),
    (
        "autoscaler.latency_window",
        lambda v: LatencyTargetAutoscaler(latency_window=v),
        1,
    ),
    (
        "queue-depth.scale_out_depth",
        lambda v: QueueDepthAutoscaler(scale_out_depth=v),
        1,
    ),
    ("queue-depth.scale_in_depth", lambda v: QueueDepthAutoscaler(scale_in_depth=v), 0),
    ("queue-cap.max_queue", lambda v: QueueCapAdmission(max_queue=v), 1),
    (
        "shedder.depth_per_step",
        lambda v: QueueDepthShedder(LADDER, depth_per_step=v),
        1,
    ),
    ("control.initial_workers", lambda v: ControlConfig(initial_workers=v), 1),
    ("batch-deadline.max_batch", lambda v: BatchDeadlineScheduler(max_batch=v), 1),
    ("session.num_sessions", lambda v: SessionStream(MIX, v, 3).generate(seed=0), 1),
    (
        "session.frames_per_session",
        lambda v: SessionStream(MIX, 2, v).generate(seed=0),
        1,
    ),
    (
        "flash-crowd.num_bursts",
        lambda v: FlashCrowdStream(5.0, 40.0, 1.0, MIX, num_bursts=v).generate(seed=0),
        1,
    ),
)

#: Values a plain ``x < low`` guard let through (plus ``bool``, an ``int``
#: subclass no count means); ``"below"`` stands for ``low - 1``.
BAD_COUNTS = (NAN, INF, 2.5, True, "below")


@pytest.mark.parametrize("value", BAD_COUNTS, ids=repr)
@pytest.mark.parametrize(
    "build,low",
    [case[1:] for case in COUNT_CASES],
    ids=[case[0] for case in COUNT_CASES],
)
def test_bad_count_inputs_raise_one_line_errors(build, low, value):
    if value == "below":
        value = low - 1
    with fails_within(10.0):
        with pytest.raises(ValueError) as error:
            build(value)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(
    "build,low",
    [case[1:] for case in COUNT_CASES],
    ids=[case[0] for case in COUNT_CASES],
)
def test_each_count_case_accepts_its_lowest_valid_value(build, low):
    with fails_within(10.0):
        assert build(low) is not None


class TestRequireCount:
    def test_returns_valid_values_as_int(self):
        assert require_count("x", 0, 0) == 0
        assert require_count("x", 3, 1) == 3
        count = require_count("x", np.int64(4), 1)
        assert count == 4 and type(count) is int

    @pytest.mark.parametrize("value", (NAN, INF, 2.5, True, 0, -1, "3", None), ids=repr)
    def test_names_the_input_and_value(self, value):
        with pytest.raises(ValueError) as error:
            require_count("max_queue", value, 1)
        assert str(error.value) == (
            f"max_queue must be >= 1 and an integer, got {value!r}"
        )


@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_default_sla_must_be_positive_and_finite(value):
    with pytest.raises(ValueError, match="default_sla_s must be positive"):
        FleetSimulator(("flexnerfer",), engine=SweepEngine(), default_sla_s=value)


LADDER = DegradationLadder(
    steps=(DegradationStep("half-res", resolution_scale=0.5),), qualities=(0.7,)
)


@pytest.mark.parametrize(
    "scheduler,control",
    [
        (BatchDeadlineScheduler(), None),  # event loop
        (FIFOScheduler(), None),  # fast path
        (
            FIFOScheduler(),
            ControlConfig(
                admission=QueueCapAdmission(max_queue=4),
                shedder=QueueDepthShedder(LADDER),
            ),
        ),  # fast path with admission + shedding
    ],
    ids=["event-loop", "fifo", "fifo+cap+shed"],
)
def test_duplicate_request_ids_are_rejected_at_ingress(scheduler, control):
    requests = list(PoissonStream(40.0, 1.0, MIX, sla_s=0.2).generate(seed=3))
    twin = dataclasses.replace(requests[7], arrival_s=requests[-1].arrival_s)
    requests.append(twin)
    simulator = FleetSimulator(
        ("flexnerfer", "neurex"),
        scheduler=scheduler,
        engine=SweepEngine(),
        control=control,
    )
    with fails_within(20.0):
        with pytest.raises(ValueError) as error:
            simulator.run(requests)
    assert str(error.value) == f"request {twin.request_id}: duplicate request_id"


def test_event_loop_and_fast_path_share_the_duplicate_error():
    requests = list(PoissonStream(40.0, 1.0, MIX, sla_s=0.2).generate(seed=3))
    requests.insert(0, requests[-1])
    simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
    messages = []
    for path in (simulator.run, simulator._run_event_loop):
        with pytest.raises(ValueError) as error:
            path(requests)
        messages.append(str(error.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("value", NON_FINITE + (-INF,), ids=repr)
@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
def test_trace_arrival_times_must_be_finite(position, value):
    times = [0.1, 0.2, 0.3]
    times[position] = value
    with fails_within(10.0):
        with pytest.raises(ValueError) as error:
            TraceStream(times, MIX)
    assert str(error.value) == "trace arrival times must be finite"


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", [2.5, 400.0, True, False, "400", None], ids=repr)
def test_scenario_resolution_must_be_integers(field, value):
    with pytest.raises(ValueError) as error:
        Scenario("instant-ngp", **{field: value})
    assert "resolution must be integers" in str(error.value)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize("value", [0, -1], ids=repr)
def test_scenario_resolution_below_one_keeps_its_wording(value):
    with pytest.raises(ValueError, match="resolution must be positive"):
        Scenario("instant-ngp", width=value)


def test_scenario_accepts_any_integer_type():
    assert Scenario("instant-ngp", width=np.int64(64), height=1).width == 64
