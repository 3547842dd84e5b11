"""Stream-conformance harness: the contract every request stream must pass.

Every concrete :class:`~repro.serve.request.RequestStream` subclass in the
repository is registered here as a :class:`StreamCase`; the driver
(``tests/serve/test_stream_conformance.py``) parametrizes one certification
suite over the registry:

* **seeded bit-determinism** -- ``generate(seed)`` is a pure function of the
  seed, identical across repeats and across concurrent threads (the
  ``--jobs`` execution mode);
* **batch contract** -- ``generate`` returns a
  :class:`~repro.serve.request.RequestBatch` whose length, iteration,
  indexing, slicing and tuple equality agree with its columns, and whose
  requests are built once even when two threads read it first together;
* **arrival invariants** -- sequential ids, non-decreasing non-negative
  arrivals bounded by the stream horizon, deadlines at or after arrival,
  well-formed poses, per-session frame monotonicity;
* **conservation** -- the realized request count matches the configured
  demand (exactly for session/trace streams, within generous bounds for
  stochastic ones);
* **mix convergence** -- empirical scenario shares approach the stream's
  advertised mix weights;
* **differential equivalence** -- the fleet simulator's FIFO fast path and
  its discrete-event loop agree bit-exactly on the stream, bare and under
  an admission + shedding control plane;
* **importer fidelity** -- ``dump_trace`` -> ``load_trace`` round-trips the
  realization losslessly (JSON-lines always; CSV when the stream uses no
  JSONL-only fields).

A new stream subclass that is not registered fails the completeness gate
(`test_every_stream_subclass_is_certified`), so the library cannot grow an
uncertified arrival process.

Not collected by pytest (no ``test_`` prefix); the repo root is on
``pythonpath`` so the driver imports it as ``tests.serve.stream_conformance``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Iterator

import repro.serve
from repro.serve.request import (
    REQUEST_FIELDS,
    DiurnalStream,
    PoissonStream,
    Request,
    RequestBatch,
    RequestStream,
    Scenario,
    ScenarioMix,
    TraceStream,
)
from repro.serve.traffic import (
    FlashCrowdStream,
    ImportedTraceStream,
    MarkedBurstStream,
    MultiTenantStream,
    SessionStream,
    TenantSpec,
)

#: Fixed certification seed (shared with the serving fuzz suites).
SEED = 20260808

#: Deliberately tiny frames: the shared engine simulates each unique
#: (device, scenario) pair once, so certifying every stream costs a
#: handful of frame simulations total.
TINY_SCENARIOS = (
    Scenario("instant-ngp", scene="lego", width=96, height=96),
    Scenario("instant-ngp", scene="mic", width=64, height=64),
    Scenario("tensorf", scene="lego", width=80, height=80),
)

WEIGHTED_MIX = ScenarioMix(TINY_SCENARIOS, weights=(2.0, 1.0, 1.0))
SINGLE_MIX = ScenarioMix((TINY_SCENARIOS[0],))

#: Absolute tolerance on empirical mix shares (a few hundred samples per
#: stream; binomial noise is ~0.04, so 0.1 certifies convergence without
#: flaking on the fixed seed).
MIX_TOLERANCE = 0.1


@dataclass(frozen=True)
class StreamCase:
    """One certified stream: a factory plus its conformance expectations.

    ``build`` returns a fresh stream instance (cases must not share mutable
    state across tests); the expectation fields encode which checks apply:

    * ``exact_count`` -- ``generate(SEED)`` returns exactly this many
      requests (``None`` -> use ``count_bounds``);
    * ``count_bounds`` -- inclusive (lo, hi) bounds on the realized count,
      derived from the configured rate and horizon;
    * ``max_duration_s`` -- every arrival is < this horizon (``None`` for
      replay streams whose horizon is the trace itself);
    * ``mix_convergent`` -- empirical scenario shares must approach the
      stream's advertised ``mix`` weights (off for replay/session streams
      whose composition is structural, not sampled per request);
    * ``seed_sensitive`` -- different seeds must produce different
      realizations (off for verbatim replay streams);
    * ``csv_roundtrip`` -- the realization survives the CSV importer too
      (streams emitting poses or pinned requests are JSONL-only).
    """

    name: str
    build: Callable[[], RequestStream] = field(repr=False)
    exact_count: int | None = None
    count_bounds: tuple[int, int] | None = None
    max_duration_s: float | None = None
    mix_convergent: bool = True
    seed_sensitive: bool = True
    csv_roundtrip: bool = True


def _imported_requests() -> tuple[Request, ...]:
    """A deterministic synthetic serving log exercising every trace field."""
    requests = []
    tenants = ("studio", None, "batch")
    for index in range(120):
        scenario = TINY_SCENARIOS[index % len(TINY_SCENARIOS)]
        arrival = index * 0.05
        in_session = index % 4 == 0
        requests.append(
            Request(
                request_id=index,
                arrival_s=arrival,
                scenario=scenario,
                deadline_s=arrival + 0.25 if index % 2 == 0 else None,
                tenant=tenants[index % len(tenants)],
                session=index % 3 if in_session else None,
                degradable=index % 5 != 0,
                pose=(3.0 * index, 30.0, 4.0) if in_session else None,
            )
        )
    return tuple(requests)


def _trace_times() -> tuple[float, ...]:
    """Recorded arrival times for the :class:`TraceStream` case."""
    return tuple(0.02 * i for i in range(200))


CASES: tuple[StreamCase, ...] = (
    StreamCase(
        name="poisson",
        build=lambda: PoissonStream(
            rate_rps=40.0, duration_s=8.0, mix=WEIGHTED_MIX, sla_s=0.25
        ),
        count_bounds=(200, 440),  # mean 320, sd ~18
        max_duration_s=8.0,
    ),
    StreamCase(
        name="diurnal",
        build=lambda: DiurnalStream(
            base_rps=10.0,
            peak_rps=50.0,
            period_s=4.0,
            duration_s=8.0,
            mix=WEIGHTED_MIX,
            sla_s=0.5,
        ),
        count_bounds=(140, 340),  # mean rate (base+peak)/2 = 30 -> ~240
        max_duration_s=8.0,
    ),
    StreamCase(
        name="trace",
        build=lambda: TraceStream(
            _trace_times(),
            mix=WEIGHTED_MIX,
            scenarios=tuple(
                TINY_SCENARIOS[i % len(TINY_SCENARIOS)] for i in range(200)
            ),
            sla_s=0.3,
        ),
        exact_count=200,
        mix_convergent=False,  # scenarios recorded, not sampled
        seed_sensitive=False,  # verbatim replay
    ),
    StreamCase(
        name="imported-trace",
        build=lambda: ImportedTraceStream(_imported_requests(), WEIGHTED_MIX),
        exact_count=120,
        mix_convergent=False,
        seed_sensitive=False,
        csv_roundtrip=False,  # carries poses and pinned requests
    ),
    StreamCase(
        name="flash-crowd",
        build=lambda: FlashCrowdStream(
            base_rps=10.0,
            burst_rps=80.0,
            duration_s=8.0,
            mix=WEIGHTED_MIX,
            num_bursts=2,
            burst_s=1.0,
            sla_s=0.3,
        ),
        count_bounds=(110, 350),  # mean 10*8 + 70*2*1 = 220
        max_duration_s=8.0,
    ),
    StreamCase(
        name="marked-burst",
        build=lambda: MarkedBurstStream(
            immigrant_rps=15.0,
            duration_s=8.0,
            mix=WEIGHTED_MIX,
            offspring_mean=0.5,
            decay_s=0.3,
            sla_s=0.4,
        ),
        count_bounds=(100, 420),  # long-run mean 30 rps, clustered variance
        max_duration_s=8.0,
    ),
    StreamCase(
        name="multi-tenant",
        build=lambda: MultiTenantStream(
            (
                TenantSpec(
                    "interactive",
                    12.0,
                    ScenarioMix((TINY_SCENARIOS[0],)),
                    sla_s=0.15,
                ),
                TenantSpec(
                    "batch", 8.0, ScenarioMix((TINY_SCENARIOS[2],)), sla_s=1.0
                ),
                TenantSpec(
                    "free", 6.0, ScenarioMix((TINY_SCENARIOS[1],)), sla_s=0.4
                ),
            ),
            duration_s=8.0,
        ),
        count_bounds=(120, 300),  # merged mean 26 rps -> ~208
        max_duration_s=8.0,
    ),
    StreamCase(
        name="session",
        build=lambda: SessionStream(
            SINGLE_MIX,
            num_sessions=6,
            frames_per_session=30,
            fps=20.0,
            start_spread_s=1.0,
            jitter_s=0.004,
        ),
        exact_count=180,  # 6 sessions x 30 frames, exact by construction
        max_duration_s=3.0,  # spread 1.0 + 30 frames / 20 fps + jitter
        mix_convergent=False,  # one scenario per session, not per request
        csv_roundtrip=False,  # carries poses
    ),
)


def case_by_name(name: str) -> StreamCase:
    """Look up a registered case (driver parametrization helper)."""
    for case in CASES:
        if case.name == name:
            return case
    raise KeyError(name)


def covered_classes() -> set[type]:
    """The stream classes the registry certifies (one instance per case)."""
    return {type(case.build()) for case in CASES}


def _walk_subclasses(cls: type) -> Iterator[type]:
    """Yield every (transitive) subclass of ``cls``."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk_subclasses(sub)


def all_concrete_stream_classes() -> set[type]:
    """Every concrete ``RequestStream`` subclass the repository defines.

    Imports every module of :mod:`repro.serve` first: the package loads
    its submodules lazily, and a stream class exists only once its module
    is imported.  Test-local subclasses (fixtures defining throwaway
    streams) are out of scope; only classes living under the ``repro``
    package must certify.
    """
    for info in pkgutil.walk_packages(repro.serve.__path__, "repro.serve."):
        importlib.import_module(info.name)
    return {
        sub
        for sub in _walk_subclasses(RequestStream)
        if sub.__module__.startswith("repro.") and not inspect.isabstract(sub)
    }


def check_batch_contract(case: StreamCase) -> None:
    """Assert ``generate`` returns a batch that reads as its columns."""
    stream = case.build()
    batch = stream.generate(seed=SEED)
    assert isinstance(batch, RequestBatch), (
        f"{case.name}: generate returned {type(batch).__name__}, not a RequestBatch"
    )
    # Two threads that read a fresh batch together get equal tuples.
    ready = threading.Barrier(2)

    def materialize(_):
        ready.wait()
        return tuple(batch)

    with ThreadPoolExecutor(max_workers=2) as pool:
        first, second = pool.map(materialize, range(2))
    assert first == second, f"{case.name}: concurrent reads disagree"

    n = len(batch.arrival_s)
    assert len(batch) == len(first) == n, f"{case.name}: len() disagrees with columns"
    defaults = {f.name: f.default for f in fields(Request) if f.default is not MISSING}
    for name in REQUEST_FIELDS:
        column = getattr(batch, name)
        expected = column if column is not None else (defaults[name],) * n
        assert tuple(getattr(r, name) for r in batch) == expected, (
            f"{case.name}: iteration disagrees with the {name} column"
        )
    requests = tuple(batch)
    assert batch == requests and requests == batch, f"{case.name}: tuple equality"
    assert batch[0] is batch[0] is requests[0], f"{case.name}: element rebuilt"
    assert batch[-1] is requests[-1] and batch[-n] is requests[0], (
        f"{case.name}: negative indexing"
    )
    middle = batch[1:-1:2]
    assert type(middle) is tuple and middle == requests[1:-1:2], f"{case.name}: slicing"
    assert batch == stream.generate(seed=SEED), f"{case.name}: repeat call differs"


def check_invariants(case: StreamCase, requests: tuple[Request, ...]) -> None:
    """Assert the structural arrival invariants on one realization."""
    assert requests, f"{case.name}: empty realization"
    for index, request in enumerate(requests):
        assert request.request_id == index, (
            f"{case.name}: ids must be sequential from 0 "
            f"(got {request.request_id} at position {index})"
        )
        assert request.arrival_s >= 0.0, f"{case.name}: negative arrival"
        if case.max_duration_s is not None:
            assert request.arrival_s < case.max_duration_s, (
                f"{case.name}: arrival {request.arrival_s} past horizon"
            )
        if request.deadline_s is not None:
            assert request.deadline_s >= request.arrival_s, (
                f"{case.name}: deadline before arrival on request {index}"
            )
        if request.pose is not None:
            assert len(request.pose) == 3, f"{case.name}: malformed pose"
    arrivals = [request.arrival_s for request in requests]
    assert arrivals == sorted(arrivals), f"{case.name}: arrivals not sorted"
    # Frames of one session must arrive monotonically and share a scenario.
    by_session: dict[int, list[Request]] = {}
    for request in requests:
        if request.session is not None:
            by_session.setdefault(request.session, []).append(request)
    for session, frames in by_session.items():
        times = [frame.arrival_s for frame in frames]
        assert times == sorted(times), (
            f"{case.name}: session {session} frames out of order"
        )


def check_count(case: StreamCase, requests: tuple[Request, ...]) -> None:
    """Assert the realized count matches the configured demand."""
    if case.exact_count is not None:
        assert len(requests) == case.exact_count, (
            f"{case.name}: expected exactly {case.exact_count} requests, "
            f"got {len(requests)}"
        )
    if case.count_bounds is not None:
        lo, hi = case.count_bounds
        assert lo <= len(requests) <= hi, (
            f"{case.name}: count {len(requests)} outside [{lo}, {hi}]"
        )


def check_mix_convergence(case: StreamCase, requests: tuple[Request, ...]) -> None:
    """Assert empirical scenario shares approach the advertised mix."""
    stream = case.build()
    weights = stream.mix.weights
    if weights is None:
        weights = tuple(1.0 for _ in stream.mix.scenarios)
    total = sum(weights)
    counts: dict[Scenario, int] = {s: 0 for s in stream.mix.scenarios}
    for request in requests:
        assert request.scenario in counts, (
            f"{case.name}: scenario {request.scenario.label} not in the mix"
        )
        counts[request.scenario] += 1
    for scenario, weight in zip(stream.mix.scenarios, weights):
        expected = weight / total
        observed = counts[scenario] / len(requests)
        assert abs(observed - expected) <= MIX_TOLERANCE, (
            f"{case.name}: {scenario.label} share {observed:.3f} vs "
            f"expected {expected:.3f} (tolerance {MIX_TOLERANCE})"
        )
