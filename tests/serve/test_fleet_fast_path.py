"""The closed-form FIFO fast path is bit-identical to the event loop.

``FleetSimulator.run`` routes plain-FIFO fleets through
``_run_fifo``; every other scheduler keeps the discrete-event
loop.  These tests pin the equivalence contract: for every fleet shape,
load level and SLA configuration, the fast path's ``ServingReport`` --
including the per-completion log and per-worker stats -- equals the event
loop's report exactly (frozen-dataclass equality, which compares IEEE-754
doubles bit for bit).
"""

import pytest

from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream, Scenario, ScenarioMix, TraceStream
from repro.serve.scheduler import BatchDeadlineScheduler, FIFOScheduler
from repro.sim.sweep import SweepEngine

MIX = ScenarioMix(
    scenarios=(
        Scenario("instant-ngp", scene="lego", width=200, height=200),
        Scenario("tensorf", scene="lego", width=200, height=200),
    ),
    weights=(3.0, 1.0),
)


def assert_reports_identical(simulator, requests):
    fast = simulator.run(requests)
    slow = simulator._run_event_loop(requests)
    assert fast == slow
    assert fast.completed == slow.completed
    assert fast.workers == slow.workers
    return fast


class TestFastPathEquivalence:
    def test_single_worker(self):
        stream = PoissonStream(rate_rps=60.0, duration_s=5.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=0))

    def test_heterogeneous_duo(self):
        stream = PoissonStream(rate_rps=80.0, duration_s=5.0, mix=MIX, sla_s=0.25)
        simulator = FleetSimulator(("flexnerfer", "neurex"), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=3))

    def test_repeated_device_trio(self):
        stream = PoissonStream(rate_rps=120.0, duration_s=4.0, mix=MIX, sla_s=0.3)
        simulator = FleetSimulator(
            ("flexnerfer", "flexnerfer", "neurex"), engine=SweepEngine()
        )
        assert_reports_identical(simulator, stream.generate(seed=7))

    def test_overload_queue_drain(self):
        # Far more offered load than the fleet can serve: queues build and
        # drain long after the last arrival, exercising the argmin branch.
        stream = PoissonStream(rate_rps=400.0, duration_s=2.0, mix=MIX, sla_s=0.1)
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        report = assert_reports_identical(simulator, stream.generate(seed=1))
        assert report.sla_attainment < 1.0

    def test_default_sla_stamping(self):
        stream = PoissonStream(rate_rps=60.0, duration_s=4.0, mix=MIX, sla_s=None)
        simulator = FleetSimulator(
            ("flexnerfer", "neurex"), engine=SweepEngine(), default_sla_s=0.2
        )
        assert_reports_identical(simulator, stream.generate(seed=2))

    def test_nonzero_time_origin(self):
        stream = TraceStream(
            arrival_times_s=(10.0, 10.0, 10.5, 12.0, 12.0, 12.0),
            mix=MIX,
            sla_s=0.3,
        )
        simulator = FleetSimulator(("flexnerfer", "neurex"), engine=SweepEngine())
        assert_reports_identical(simulator, stream.generate(seed=0))

    def test_empty_stream(self):
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())
        assert_reports_identical(simulator, ())

    def test_fast_path_actually_selected_for_fifo(self, monkeypatch):
        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(("flexnerfer",), engine=SweepEngine())

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("FIFO fleet fell back to the event loop")

        monkeypatch.setattr(simulator, "_run_event_loop", bomb)
        report = simulator.run(stream.generate(seed=0))
        assert report.scheduler == "fifo"

    def test_non_fifo_scheduler_uses_event_loop(self, monkeypatch):
        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer",),
            scheduler=BatchDeadlineScheduler(max_batch=4),
            engine=SweepEngine(),
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("non-FIFO fleet took the FIFO fast path")

        monkeypatch.setattr(simulator, "_run_fifo", bomb)
        simulator.run(stream.generate(seed=0))

    def test_fifo_subclass_uses_event_loop(self, monkeypatch):
        # The fast path replicates FIFOScheduler.assign exactly; a subclass
        # may override policy, so only the exact class is fast-pathed.
        class TweakedFIFO(FIFOScheduler):
            pass

        stream = PoissonStream(rate_rps=40.0, duration_s=2.0, mix=MIX, sla_s=0.2)
        simulator = FleetSimulator(
            ("flexnerfer",), scheduler=TweakedFIFO(), engine=SweepEngine()
        )

        def bomb(requests):  # pragma: no cover - must not run
            raise AssertionError("FIFO subclass took the FIFO fast path")

        monkeypatch.setattr(simulator, "_run_fifo", bomb)
        simulator.run(stream.generate(seed=0))
