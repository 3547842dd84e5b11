"""Columnar request batches: laziness, and equality with the event loop once read.

Streams return a :class:`~repro.serve.request.RequestBatch`, and the FIFO
fast path reads its columns.  Nothing on that path needs a ``Request`` or
``CompletedRequest`` object, so none is built until a caller reads
``report.completed`` (or ``report.rejected``).  These tests count every
construction by wrapping ``__init__``, then check that the logs, once
read, equal the event loop's through ``tests/_differential.py``.  The
ingress edge cases -- ids out of arrival order, default-SLA stamping, an
empty stream, an all-rejected stream, a duplicate id and a NaN arrival --
run on both paths.
"""

import collections
import dataclasses
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.control import (
    AdmissionPolicy,
    AdmissionSession,
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthShedder,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.report import CompletedRequest, RejectedRequest
from repro.serve.request import (
    PoissonStream,
    Request,
    RequestBatch,
    ScenarioMix,
    TraceStream,
)
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine
from tests._differential import assert_fast_path_matches_event_loop
from tests.serve.stream_conformance import TINY_SCENARIOS

MIX = ScenarioMix(TINY_SCENARIOS, weights=(2.0, 1.0, 1.0))
FLEET = ("flexnerfer", "neurex")
LADDER = DegradationLadder(
    steps=(
        DegradationStep("half-samples", sample_scale=0.5),
        DegradationStep("half-res", resolution_scale=0.5),
    ),
    qualities=(0.9, 0.7),
)
CAP_AND_SHED = ControlConfig(
    admission=QueueCapAdmission(max_queue=8),
    shedder=QueueDepthShedder(LADDER, depth_per_step=2),
)


class _ClosedSession(AdmissionSession):
    reason = "closed"

    def admit(self, now, queue_depth):
        return False


@dataclasses.dataclass(frozen=True)
class RejectAll(AdmissionPolicy):
    """Admission that turns every arrival away."""

    def session(self):
        return _ClosedSession()


@pytest.fixture(scope="module")
def engine():
    """One engine for the module: each (device, scenario) renders once."""
    return SweepEngine()


@pytest.fixture
def built(monkeypatch):
    """Count every ``Request``/``CompletedRequest``/``RejectedRequest`` built."""
    counts = collections.Counter()
    for cls in (Request, CompletedRequest, RejectedRequest):
        monkeypatch.setattr(cls, "__init__", _counting(cls, counts))
    return counts


def _counting(cls, counts):
    original = cls.__init__

    def __init__(self, *args, **kwargs):
        counts[cls.__name__] += 1
        original(self, *args, **kwargs)

    return __init__


def simulator(engine, control=None, default_sla_s=None):
    return FleetSimulator(
        FLEET,
        scheduler=FIFOScheduler(),
        engine=engine,
        control=control,
        default_sla_s=default_sla_s,
    )


def stream_of(n, load, sla_s=0.05):
    """Poisson traffic of about ``n`` requests at ``load`` x the fleet's capacity."""
    rate = 300.0 * load
    return PoissonStream(rate, n / rate, MIX, sla_s=sla_s)


class TestLaziness:
    def test_plain_fifo_builds_no_objects_until_the_log_is_read(
        self, engine, built
    ):
        requests = stream_of(10_000, 0.7).generate(seed=1)
        report = simulator(engine).run(requests)
        assert len(requests) == report.num_requests > 9_000
        assert report.completed_requests == len(requests)
        assert built == {}
        completed = report.completed
        assert built == {"Request": len(requests), "CompletedRequest": len(requests)}
        assert report.completed is completed
        assert report.rejected == ()
        assert built["RejectedRequest"] == 0

    def test_cap_and_shed_builds_no_objects_until_the_logs_are_read(
        self, engine, built
    ):
        requests = stream_of(10_000, 2.0).generate(seed=2)
        report = simulator(engine, CAP_AND_SHED).run(requests)
        assert report.rejected_requests > 0 and report.shed_requests > 0
        assert built == {}
        rejected = report.rejected
        assert built == {
            "Request": len(requests),
            "RejectedRequest": report.rejected_requests,
        }
        assert len(rejected) == report.rejected_requests
        assert len(report.completed) == report.completed_requests
        assert built["CompletedRequest"] == report.completed_requests

    @pytest.mark.parametrize("control", [None, CAP_AND_SHED], ids=["fifo", "cap+shed"])
    def test_logs_once_read_equal_the_event_loop(self, engine, control):
        requests = stream_of(10_000, 2.0).generate(seed=3)
        report = assert_fast_path_matches_event_loop(
            simulator(engine, control), requests
        )
        assert [c.request.request_id for c in report.completed] == sorted(
            c.request.request_id for c in report.completed
        )


class TestIngressEdges:
    def test_caller_tuple_with_ids_out_of_arrival_order(self, engine, built):
        generated = stream_of(300, 2.0).generate(seed=4)
        ids = random.Random(4).sample(range(len(generated)), len(generated))
        requests = tuple(
            dataclasses.replace(r, request_id=i) for i, r in zip(ids, generated)
        )[::-1]
        built.clear()
        for control in (None, CAP_AND_SHED):
            report = assert_fast_path_matches_event_loop(
                simulator(engine, control), requests
            )
            ids = [c.request.request_id for c in report.completed]
            assert ids == sorted(ids)
        # The caller's tuple is the batch's materialized tuple: no copies.
        assert built["Request"] == 0
        assert {id(c.request) for c in report.completed} <= {id(r) for r in requests}

    def test_default_sla_is_stamped_on_missing_deadlines(self, engine, built):
        requests = stream_of(300, 2.0, sla_s=None).generate(seed=5)
        sim = simulator(engine, CAP_AND_SHED, default_sla_s=0.04)
        report = sim.run(requests)
        assert built == {}
        for record in report.completed:
            assert record.request.deadline_s == record.request.arrival_s + 0.04
        for rejection in report.rejected:
            assert rejection.request.deadline_s == rejection.request.arrival_s + 0.04
        assert_fast_path_matches_event_loop(sim, requests)

    @pytest.mark.parametrize(
        "requests",
        [(), [], TraceStream([], MIX).generate(seed=0)],
        ids=["tuple", "list", "stream"],
    )
    def test_empty_stream(self, engine, requests):
        report = assert_fast_path_matches_event_loop(
            simulator(engine, CAP_AND_SHED), requests
        )
        assert report.num_requests == report.completed_requests == 0
        assert report.completed == report.rejected == ()

    def test_all_rejected_stream(self, engine, built):
        requests = stream_of(300, 0.7).generate(seed=6)
        sim = simulator(engine, ControlConfig(admission=RejectAll()))
        report = sim.run(requests)
        assert report.completed_requests == 0
        assert report.rejected_requests == report.num_requests == len(requests)
        assert built == {}
        assert {r.reason for r in report.rejected} == {"closed"}
        assert [r.request for r in report.rejected] == list(requests)
        assert_fast_path_matches_event_loop(sim, requests)

    def test_duplicate_id_is_rejected_on_the_columns(self, engine, built):
        batch = RequestBatch(
            (0, 1, 2, 1), (0.0, 0.1, 0.2, 0.3), (TINY_SCENARIOS[0],) * 4
        )
        sim = simulator(engine)
        messages = set()
        for path in (sim.run, sim._run_event_loop):
            with pytest.raises(ValueError) as error:
                path(batch)
            messages.add(str(error.value))
        assert messages == {"request 1: duplicate request_id"}
        assert built == {}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_non_finite_arrival_is_rejected_on_the_columns(self, engine, built, bad):
        batch = RequestBatch((0, 1, 2), (0.0, bad, 0.2), (TINY_SCENARIOS[0],) * 3)
        sim = simulator(engine)
        for path in (sim.run, sim._run_event_loop):
            with pytest.raises(ValueError) as error:
                path(batch)
            assert str(error.value) == f"request 1: arrival_s must be finite, got {bad!r}"
        assert built == {}


class TestBatch:
    def test_columns_must_have_one_row_per_request(self):
        with pytest.raises(ValueError, match="column scenario has 1 rows, expected 2"):
            RequestBatch((0, 1), (0.0, 1.0), (TINY_SCENARIOS[0],))

    def test_a_tuple_is_kept_as_the_materialized_tuple(self):
        requests = tuple(stream_of(50, 0.7).generate(seed=7))
        batch = RequestBatch.of(requests)
        assert batch.requests() is requests
        assert RequestBatch.of(batch) is batch
        assert batch.arrival_s == tuple(r.arrival_s for r in requests)

    def test_elements_are_built_once(self, built):
        batch = stream_of(50, 0.7).generate(seed=8)
        assert built == {}
        assert batch[3] is batch[3] is batch.requests()[3]
        assert built == {"Request": len(batch)}

    def test_concurrent_first_reads_build_the_tuple_once(self, built):
        batch = stream_of(2_000, 0.7).generate(seed=9)
        threads = 8
        ready = threading.Barrier(threads)

        def read(_):
            ready.wait(timeout=10)
            return batch.requests()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(read, range(threads), timeout=30))
        finally:
            sys.setswitchinterval(previous)
        assert len(results) == threads
        assert all(result is results[0] for result in results)
        assert built == {"Request": len(batch)}

    def test_default_columns_materialize_as_field_defaults(self):
        batch = RequestBatch((4,), (0.5,), (TINY_SCENARIOS[1],))
        assert batch == (Request(4, 0.5, TINY_SCENARIOS[1]),)
        assert repr(batch) == "RequestBatch(1 requests)"
