"""Driver for the stream-conformance harness: certify every stream.

The registry and the checks live in ``tests/serve/stream_conformance.py``;
this module parametrizes the certification suite over every registered
:class:`~tests.serve.stream_conformance.StreamCase` and closes the loop
with a completeness gate: a concrete ``RequestStream`` subclass that is
not registered in the harness fails CI here.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.control import (
    ControlConfig,
    DegradationLadder,
    DegradationStep,
    QueueCapAdmission,
    QueueDepthShedder,
)
from repro.serve.fleet import FleetSimulator
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import dump_trace, load_trace
from repro.sim.sweep import SweepEngine

from tests._differential import assert_fast_path_matches_event_loop
from tests.serve.stream_conformance import (
    CASES,
    SEED,
    all_concrete_stream_classes,
    check_batch_contract,
    check_count,
    check_invariants,
    check_mix_convergence,
    covered_classes,
)

#: A modelled shedding ladder for the controlled differential (mechanics,
#: not PSNR pricing -- same convention as the serving fuzz suite).
LADDER = DegradationLadder(
    steps=(
        DegradationStep("half-samples", sample_scale=0.5),
        DegradationStep("half-res", resolution_scale=0.5),
    ),
    qualities=(0.9, 0.7),
)


@pytest.fixture(scope="module")
def engine():
    """One shared engine: each unique (device, scenario) simulates once."""
    return SweepEngine()


@pytest.fixture(params=CASES, ids=lambda case: case.name)
def case(request):
    """One registered stream case per parametrization."""
    return request.param


class TestDeterminism:
    def test_repeat_generation_is_bit_identical(self, case):
        """The same seed yields the same realization, object for object."""
        stream = case.build()
        first = stream.generate(seed=SEED)
        assert first == stream.generate(seed=SEED)
        # A freshly built stream (no shared mutable state) agrees too.
        assert first == case.build().generate(seed=SEED)

    def test_concurrent_generation_is_bit_identical(self, case):
        """Realizations are identical across threads (the --jobs mode)."""
        reference = case.build().generate(seed=SEED)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(lambda: case.build().generate(seed=SEED))
                for _ in range(4)
            ]
            assert all(f.result() == reference for f in futures)

    def test_generate_returns_a_columnar_batch(self, case):
        """``generate`` returns a batch that reads exactly as its columns."""
        check_batch_contract(case)

    def test_seed_changes_realization(self, case):
        """Different seeds give different realizations (replay streams excepted)."""
        stream = case.build()
        if case.seed_sensitive:
            assert stream.generate(seed=SEED) != stream.generate(seed=SEED + 1)
        else:
            assert stream.generate(seed=SEED) == stream.generate(seed=SEED + 1)


class TestInvariants:
    def test_arrival_invariants(self, case):
        """Sequential ids, sorted arrivals, sane deadlines/poses/sessions."""
        check_invariants(case, case.build().generate(seed=SEED))

    def test_count_conservation(self, case):
        """Realized request count matches the configured demand."""
        check_count(case, case.build().generate(seed=SEED))

    def test_mix_proportions_converge(self, case):
        """Empirical scenario shares approach the advertised mix weights."""
        if not case.mix_convergent:
            pytest.skip("composition is structural, not sampled per request")
        check_mix_convergence(case, case.build().generate(seed=SEED))


class TestDifferential:
    def test_fast_path_matches_event_loop(self, case, engine):
        """Bare FIFO fleet: fast path == event loop on this stream."""
        requests = case.build().generate(seed=SEED)
        simulator = FleetSimulator(
            ("flexnerfer", "neurex"),
            scheduler=FIFOScheduler(),
            engine=engine,
            default_sla_s=0.5,
        )
        assert_fast_path_matches_event_loop(simulator, requests, case.name)

    def test_fast_path_matches_event_loop_under_control(self, case, engine):
        """Admission + shedding control plane: both paths still agree."""
        requests = case.build().generate(seed=SEED)
        control = ControlConfig(
            admission=QueueCapAdmission(max_queue=8),
            shedder=QueueDepthShedder(LADDER, depth_per_step=2),
        )
        simulator = FleetSimulator(
            ("flexnerfer",),
            scheduler=FIFOScheduler(),
            engine=engine,
            default_sla_s=0.5,
            control=control,
        )
        assert_fast_path_matches_event_loop(
            simulator, requests, f"{case.name}+control"
        )


class TestImporterRoundTrip:
    def test_jsonl_roundtrip_is_lossless(self, case, tmp_path):
        """dump_trace -> load_trace (JSON-lines) reproduces the realization."""
        requests = case.build().generate(seed=SEED)
        path = tmp_path / f"{case.name}.jsonl"
        dump_trace(requests, path)
        trace = load_trace(path)
        assert trace.requests == requests
        # And the re-imported stream replays it verbatim.
        assert trace.stream().generate(seed=SEED + 99) == requests

    def test_csv_roundtrip_is_lossless(self, case, tmp_path):
        """dump_trace -> load_trace (CSV) reproduces pose-free realizations."""
        if not case.csv_roundtrip:
            pytest.skip("stream uses JSONL-only fields (pose / pinned)")
        requests = case.build().generate(seed=SEED)
        path = tmp_path / f"{case.name}.csv"
        dump_trace(requests, path)
        assert load_trace(path).requests == requests


def test_every_stream_subclass_is_certified():
    """Completeness gate: an unregistered RequestStream subclass fails CI.

    Growing the scenario library means registering a :class:`StreamCase`
    for the new stream; this test turns forgetting that into a failure
    naming the offender.
    """
    concrete = all_concrete_stream_classes()
    covered = covered_classes()
    missing = {cls.__qualname__ for cls in concrete - covered}
    assert not missing, (
        f"RequestStream subclasses without a conformance case: "
        f"{sorted(missing)} -- register them in "
        f"tests/serve/stream_conformance.py"
    )
    stale = {cls.__qualname__ for cls in covered - concrete}
    assert not stale, f"conformance cases for unknown streams: {sorted(stale)}"
