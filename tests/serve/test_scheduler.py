"""Tests for the scheduling policies and the device serving hooks."""

import copy

import pytest

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

FAST = Scenario("instant-ngp", width=200, height=200)
SLOW = Scenario("tensorf", width=200, height=200)

#: Hand-written service times: worker 0 is fast on FAST, worker 1 on SLOW.
LATENCY = {
    (FAST, 0): 0.01,
    (FAST, 1): 0.05,
    (SLOW, 0): 0.08,
    (SLOW, 1): 0.02,
}


def fake_estimate(request, worker):
    return ServiceEstimate(
        latency_s=LATENCY[(request.scenario, worker.index)], energy_j=1.0
    )


def make_workers(*names):
    return [
        Worker(index=i, name=name, device=get_device(name))
        for i, name in enumerate(names)
    ]


def make_queue(*specs):
    """Queue requests built from (arrival, scenario[, deadline]) tuples."""
    queue = RequestQueue()
    for i, spec in enumerate(specs):
        arrival, scenario = spec[0], spec[1]
        deadline = spec[2] if len(spec) > 2 else None
        queue.append(Request(i, arrival, scenario, deadline_s=deadline))
    return queue


class TestDispatch:
    def test_rejects_empty_and_mixed_batches(self):
        worker = make_workers("flexnerfer")[0]
        with pytest.raises(ValueError):
            Dispatch(worker, ())
        mixed = (Request(0, 0.0, FAST), Request(1, 0.0, SLOW))
        with pytest.raises(ValueError):
            Dispatch(worker, mixed)
        with pytest.raises(ValueError, match="share one scenario"):
            Dispatch(worker, (Request(0, 0.0, FAST),) * 2 + mixed[1:])

    def test_accepts_equal_scenario_objects(self):
        worker = make_workers("flexnerfer")[0]
        twin = copy.copy(FAST)
        assert twin is not FAST and twin == FAST
        dispatch = Dispatch(worker, (Request(0, 0.0, FAST), Request(1, 0.0, twin)))
        assert len(dispatch.requests) == 2

    def test_scenario_property(self):
        worker = make_workers("flexnerfer")[0]
        dispatch = Dispatch(worker, (Request(0, 0.0, FAST),))
        assert dispatch.scenario is FAST


class TestFIFO:
    def test_head_of_line_to_fleet_order(self):
        workers = make_workers("flexnerfer", "neurex")
        queue = make_queue((0.0, FAST), (0.0, SLOW), (0.0, FAST))
        dispatches, wake = FIFOScheduler().assign(
            0.0, queue, list(workers), fake_estimate, draining=False
        )
        assert wake is None
        assert [d.worker.index for d in dispatches] == [0, 1]
        assert [d.requests[0].request_id for d in dispatches] == [0, 1]
        assert [r.request_id for r in queue] == [2]  # leftover stays queued

    def test_no_idle_workers_no_dispatch(self):
        queue = make_queue((0.0, FAST))
        dispatches, _ = FIFOScheduler().assign(
            0.0, queue, [], fake_estimate, draining=False
        )
        assert dispatches == [] and len(queue) == 1


class TestSparsityAware:
    def test_routes_each_request_to_its_fastest_device(self):
        workers = make_workers("flexnerfer", "neurex")
        queue = make_queue((0.0, FAST), (0.0, SLOW))
        dispatches, _ = SparsityAwareScheduler().assign(
            0.0, queue, list(workers), fake_estimate, draining=False
        )
        routed = {d.requests[0].scenario: d.worker.index for d in dispatches}
        assert routed == {FAST: 0, SLOW: 1}
        assert list(queue) == []

    def test_contention_preserves_fifo_priority(self):
        workers = make_workers("flexnerfer")
        queue = make_queue((0.0, SLOW), (0.0, FAST))
        dispatches, _ = SparsityAwareScheduler().assign(
            0.0, queue, list(workers), fake_estimate, draining=False
        )
        # Only one worker: the older request wins it even though the younger
        # one would run faster.
        assert [d.requests[0].request_id for d in dispatches] == [0]


class TestBatchDeadline:
    def test_holds_small_batch_and_requests_wakeup(self):
        workers = make_workers("flexnerfer")
        queue = make_queue((0.0, FAST), (0.0, FAST))
        scheduler = BatchDeadlineScheduler(max_batch=4, max_wait_s=0.1)
        dispatches, wake = scheduler.assign(
            0.01, queue, list(workers), fake_estimate, draining=False
        )
        assert dispatches == []
        assert len(queue) == 2
        assert wake == pytest.approx(0.1)  # oldest arrival + max_wait

    def test_dispatches_full_batch(self):
        workers = make_workers("flexnerfer")
        queue = make_queue(*[(0.0, FAST)] * 5)
        scheduler = BatchDeadlineScheduler(max_batch=4, max_wait_s=10.0)
        dispatches, _ = scheduler.assign(
            0.0, queue, list(workers), fake_estimate, draining=False
        )
        assert len(dispatches) == 1
        assert len(dispatches[0].requests) == 4
        assert len(queue) == 1

    def test_max_wait_forces_partial_batch(self):
        workers = make_workers("flexnerfer")
        queue = make_queue((0.0, FAST), (0.04, FAST))
        scheduler = BatchDeadlineScheduler(max_batch=8, max_wait_s=0.05)
        dispatches, _ = scheduler.assign(
            0.06, queue, list(workers), fake_estimate, draining=False
        )
        assert len(dispatches) == 1 and len(dispatches[0].requests) == 2

    def test_deadline_pressure_forces_dispatch(self):
        workers = make_workers("flexnerfer")
        # Deadline at 0.02, service takes 0.01: no slack left at t=0.012.
        queue = make_queue((0.0, FAST, 0.02))
        scheduler = BatchDeadlineScheduler(max_batch=8, max_wait_s=10.0)
        dispatches, _ = scheduler.assign(
            0.012, queue, list(workers), fake_estimate, draining=False
        )
        assert len(dispatches) == 1

    def test_draining_flushes_everything(self):
        workers = make_workers("flexnerfer", "neurex")
        queue = make_queue((0.0, FAST), (0.0, SLOW))
        scheduler = BatchDeadlineScheduler(max_batch=8, max_wait_s=10.0)
        dispatches, _ = scheduler.assign(
            0.0, queue, list(workers), fake_estimate, draining=True
        )
        assert len(dispatches) == 2 and list(queue) == []

    def test_groups_never_mix_scenarios(self):
        workers = make_workers("flexnerfer")
        queue = make_queue((0.0, FAST), (0.0, SLOW), (0.0, FAST))
        scheduler = BatchDeadlineScheduler(max_batch=8, max_wait_s=0.0)
        dispatches, _ = scheduler.assign(
            0.0, queue, list(workers), fake_estimate, draining=False
        )
        for dispatch in dispatches:
            assert len({r.scenario for r in dispatch.requests}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchDeadlineScheduler(max_batch=0)
        with pytest.raises(ValueError):
            BatchDeadlineScheduler(max_wait_s=-1.0)
        with pytest.raises(ValueError, match="max_wait_s"):
            BatchDeadlineScheduler(max_wait_s=float("nan"))

    def test_no_idle_workers_holds_everything_without_a_wake(self):
        queue = make_queue((0.0, FAST), (0.0, SLOW))
        scheduler = BatchDeadlineScheduler(max_batch=1, max_wait_s=0.0)
        dispatches, wake = scheduler.assign(
            1.0, queue, [], fake_estimate, draining=True
        )
        assert (dispatches, wake) == ([], None)
        assert [r.request_id for r in queue] == [0, 1]


class TestDeviceServingHooks:
    def test_batching_device_amortizes(self):
        device = get_device("flexnerfer")
        single = device.service_time_s(0.1, 1)
        batched = device.service_time_s(0.1, 4)
        assert single == pytest.approx(0.1)
        assert batched < 4 * single
        assert batched == pytest.approx(0.1 * (1 + device.batch_marginal_latency * 3))
        assert device.service_energy_j(1.0, 4) < 4.0

    def test_non_batching_device_serializes(self):
        device = get_device("tpu")
        assert device.service_time_s(0.1, 4) == pytest.approx(0.4)
        assert device.service_energy_j(1.0, 4) == pytest.approx(4.0)

    def test_batch_must_be_positive(self):
        device = get_device("flexnerfer")
        with pytest.raises(ValueError):
            device.service_time_s(0.1, 0)
        with pytest.raises(ValueError):
            device.service_energy_j(0.1, 0)


def test_batch_deadline_serves_duplicate_queue_occurrences():
    """A request object appearing twice in the queue is served twice, not dropped."""
    workers = make_workers("flexnerfer", "neurex")
    request = Request(0, 0.0, FAST)
    queue = RequestQueue()
    queue.append(request)
    queue.append(request)
    scheduler = BatchDeadlineScheduler(max_batch=1, max_wait_s=0.0)
    dispatches, _ = scheduler.assign(
        0.0, queue, list(workers), fake_estimate, draining=True
    )
    assert sum(len(d.requests) for d in dispatches) == 2
    assert len(queue) == 0 and list(queue) == []


def test_batch_deadline_honours_the_tightest_deadline_in_the_batch():
    """A younger request's tighter deadline must pull the dispatch forward."""
    workers = make_workers("flexnerfer")
    # Oldest has a loose deadline; the younger one needs service soon.
    # FAST on flexnerfer estimates 0.01 s; batch of 2 serves in
    # 0.01 * (1 + 0.6) = 0.016 s, so r1's 0.03 deadline forces dispatch
    # once now >= 0.03 - 0.016 = 0.014.
    queue = make_queue((0.0, FAST, 10.0), (0.005, FAST, 0.03))
    scheduler = BatchDeadlineScheduler(max_batch=8, max_wait_s=10.0)
    dispatches, wake = scheduler.assign(
        0.01, queue, list(workers), fake_estimate, draining=False
    )
    assert dispatches == []
    assert wake == pytest.approx(0.03 - 0.016)
    dispatches, _ = scheduler.assign(
        wake, queue, list(workers), fake_estimate, draining=False
    )
    assert len(dispatches) == 1 and len(dispatches[0].requests) == 2


class TestRequestQueue:
    def test_popleft_is_push_order_across_groups(self):
        queue = make_queue((0.0, FAST), (0.0, SLOW), (0.0, SLOW), (0.0, FAST))
        assert [queue.popleft().request_id for _ in range(4)] == [0, 1, 2, 3]
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.popleft()

    def test_groups_by_value_oldest_head_first(self):
        twin = Scenario("instant-ngp", width=200, height=200)
        assert twin == FAST and twin is not FAST
        queue = make_queue((0.0, SLOW), (0.0, FAST), (0.0, twin), (0.0, SLOW))
        groups = queue.groups()
        assert [[r.request_id for _, r in g] for g in groups] == [[0, 3], [1, 2]]
        queue.take(groups[0], 1)
        # The FAST group's head (push 1) is now older than SLOW's (push 3).
        heads = [g[0][1].request_id for g in queue.groups()]
        assert heads == [1, 3]

    def test_len_and_iteration_agree_after_take(self):
        queue = make_queue(*[(0.0, FAST if i % 3 else SLOW) for i in range(9)])
        fast = next(g for g in queue.groups() if g[0][1].scenario == FAST)
        taken = queue.take(fast, 4)
        assert [r.request_id for r in taken] == [1, 2, 4, 5]
        assert len(queue) == 5
        assert [r.request_id for r in queue] == [0, 3, 6, 7, 8]
        assert queue.popleft().request_id == 0
        assert len(queue) == len(list(queue)) == 4
        with pytest.raises(ValueError):
            queue.take(fast, 3)

    def test_duplicate_occurrences_are_queued_and_taken_separately(self):
        request = Request(7, 0.0, FAST)
        other = Request(8, 0.0, FAST)
        queue = RequestQueue()
        for item in (request, other, request):
            queue.append(item)
        assert len(queue) == 3
        (group,) = queue.groups()
        assert queue.take(group, 1) == (request,)
        assert list(queue) == [other, request]
        assert queue.popleft() is other
        assert queue.popleft() is request
        assert not queue
