"""Request streams and scenario mixes for the serving simulator.

A production NeRF service does not render one frame in isolation: requests
*arrive* over time, each asking for some (model, scene, resolution, knob)
combination.  This module provides the demand side of the serving layer:

* :class:`Scenario` -- one renderable configuration (model, scene, resolution
  and the FlexNeRFer knobs precision / pruning), convertible to the exact
  :class:`~repro.nerf.models.FrameConfig` the frame-level model simulates;
* :class:`ScenarioMix` -- a weighted distribution over scenarios, sampled
  per request;
* :class:`RequestStream` subclasses -- deterministic (seeded) arrival
  processes: :class:`PoissonStream` (open-loop memoryless traffic),
  :class:`DiurnalStream` (sinusoidally modulated Poisson, i.e. a smooth
  burst / trough pattern) and :class:`TraceStream` (replay of recorded
  arrival times).  The scenario library in :mod:`repro.serve.traffic`
  adds flash crowds, self-exciting bursts, multi-tenant merges, interactive
  sessions and imported serving-log traces on the same contract.

Streams are pure generators: ``stream.generate(seed)`` returns a
:class:`RequestBatch`, an immutable sequence of :class:`Request` objects
stored as one column per field, so the same seed always produces the same
demand regardless of scheduler, fleet or execution parallelism.  The batch
behaves as a tuple of requests (length, iteration, indexing, slicing,
equality) but builds those objects only when an element is first read;
the fleet simulator's FIFO fast path reads the columns and never does.
"""

from __future__ import annotations

import abc
import math
import numbers
import operator
import random
import threading
from bisect import bisect
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import accumulate, repeat
from typing import Iterable, Iterator

from repro.nerf.models import FrameConfig
from repro.sparse.formats import Precision
from repro.validate import require_positive


@dataclass(frozen=True)
class Scenario:
    """One renderable request configuration (model, scene, resolution, knobs).

    Scenarios are hashable: the scheduler batches requests that share one
    scenario, and the sweep engine caches one frame simulation per scenario
    x device, so a million-request stream over a three-scenario mix costs
    three simulations per device.
    """

    model: str
    scene: str = "lego"
    width: int = 400
    height: int = 400
    precision: Precision | None = None
    pruning_ratio: float = 0.0

    def __post_init__(self) -> None:
        """Validate resolution and pruning ratio."""
        for size in (self.width, self.height):
            if isinstance(size, bool) or not isinstance(size, numbers.Integral):
                raise ValueError(f"resolution must be integers: {self}")
        if min(self.width, self.height) < 1:
            raise ValueError(f"resolution must be positive: {self}")
        if not 0.0 <= self.pruning_ratio < 1.0:
            raise ValueError(f"pruning ratio must be in [0, 1): {self}")

    def frame_config(self, batch_size: int = 4096) -> FrameConfig:
        """The :class:`FrameConfig` the frame-level model simulates for this scenario."""
        return FrameConfig(
            image_width=self.width,
            image_height=self.height,
            batch_size=batch_size,
            scene_name=self.scene,
        )

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g. ``instant-ngp/lego@400x400``."""
        parts = f"{self.model}/{self.scene}@{self.width}x{self.height}"
        if self.precision is not None:
            parts += f"/{self.precision.name}"
        if self.pruning_ratio:
            parts += f"/p{self.pruning_ratio:g}"
        return parts


@dataclass(frozen=True)
class ScenarioMix:
    """A weighted distribution over scenarios, sampled once per request.

    The cumulative weights and their total are computed once, at
    construction, into plain attributes (not dataclass fields, so
    equality, hashing, ``repr`` and every digest see only ``scenarios``
    and ``weights``).
    """

    scenarios: tuple[Scenario, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        """Validate the weights (if given) and precompute the sampler's table."""
        if not self.scenarios:
            raise ValueError("a scenario mix needs at least one scenario")
        cumulative = None
        total = float(len(self.scenarios))
        if self.weights is not None:
            if len(self.weights) != len(self.scenarios):
                raise ValueError(
                    f"{len(self.weights)} weights for {len(self.scenarios)} scenarios"
                )
            for weight in self.weights:
                require_positive("scenario weights", weight)
            cumulative = list(accumulate(self.weights))
            total = require_positive("total scenario weight", cumulative[-1]) + 0.0
        object.__setattr__(self, "_cumulative", cumulative)
        object.__setattr__(self, "_total", total)

    def sample(self, rng: random.Random) -> Scenario:
        """Draw one scenario according to the mix weights.

        The same arithmetic and the same single ``rng.random()`` call as
        ``rng.choices(self.scenarios, weights=self.weights)[0]``, so a
        seeded stream draws the same scenarios, minus the per-call
        rebuild of the cumulative weights.
        """
        cumulative = self._cumulative
        if cumulative is None:
            return self.scenarios[math.floor(rng.random() * self._total)]
        return self.scenarios[
            bisect(cumulative, rng.random() * self._total, 0, len(cumulative) - 1)
        ]


@dataclass(frozen=True)
class Request:
    """One arrival of the serving simulation.

    ``deadline_s`` is the absolute SLA deadline (``None`` -> the fleet
    simulator's default SLA applies, or no deadline at all).  The optional
    provenance fields carry workload structure the scenario library
    (:mod:`repro.serve.traffic`) generates and :class:`ServingReport`
    aggregates: ``tenant`` names the issuing tenant of a multi-tenant
    merge, ``session`` groups the frames of one interactive session, and
    ``pose`` records the camera pose (azimuth deg, elevation deg, radius)
    a session frame asked for.  ``degradable`` gates quality shedding: a
    pinned (``degradable=False``) request is always served at full quality
    even when a :class:`~repro.serve.control.DegradationLadder` is active.
    """

    request_id: int
    arrival_s: float
    scenario: Scenario
    deadline_s: float | None = None
    tenant: str | None = None
    session: int | None = None
    degradable: bool = True
    pose: tuple[float, float, float] | None = None


#: The :class:`Request` fields, in declaration order: the batch's columns.
REQUEST_FIELDS = tuple(f.name for f in fields(Request))


class RequestBatch(Sequence[Request]):
    """An immutable sequence of requests stored as one column per field.

    ``request_id``, ``arrival_s``, ``scenario`` (references to the mix's
    shared :class:`Scenario` objects) and ``deadline_s`` are tuples with
    one entry per request; ``tenant``, ``session``, ``degradable`` and
    ``pose`` are tuples too, or ``None`` when every request carries the
    field's default.  ``len()`` reads the columns.  Iteration, indexing,
    slicing (which returns a tuple), hashing and ``==`` against a tuple or
    another batch behave as on the tuple of :class:`Request` objects, which
    is built once, on first element access, and then reused -- so
    ``batch[i] is batch[i]``.  Concurrent first accesses build it once.
    """

    __slots__ = (*REQUEST_FIELDS, "_requests", "_lock")

    def __init__(
        self,
        request_id: Iterable[int],
        arrival_s: Iterable[float],
        scenario: Iterable[Scenario],
        deadline_s: Iterable[float | None] | None = None,
        tenant: Iterable[str | None] | None = None,
        session: Iterable[int | None] | None = None,
        degradable: Iterable[bool] | None = None,
        pose: Iterable[tuple[float, float, float] | None] | None = None,
    ) -> None:
        """Store the columns; ``deadline_s=None`` means no request has one."""
        self.request_id = tuple(request_id)
        self.arrival_s = tuple(arrival_s)
        self.scenario = tuple(scenario)
        n = len(self.arrival_s)
        self.deadline_s = tuple(deadline_s) if deadline_s is not None else (None,) * n
        self.tenant = tuple(tenant) if tenant is not None else None
        self.session = tuple(session) if session is not None else None
        self.degradable = tuple(degradable) if degradable is not None else None
        self.pose = tuple(pose) if pose is not None else None
        for name in REQUEST_FIELDS:
            column = getattr(self, name)
            if column is not None and len(column) != n:
                raise ValueError(f"column {name} has {len(column)} rows, expected {n}")
        self._requests: tuple[Request, ...] | None = None
        self._lock = threading.Lock()

    @classmethod
    def of(cls, requests: Sequence[Request]) -> "RequestBatch":
        """``requests`` as a batch; any other sequence becomes its cached tuple."""
        if isinstance(requests, RequestBatch):
            return requests
        requests = tuple(requests)
        batch = cls(
            *(
                tuple(map(operator.attrgetter(name), requests))
                for name in REQUEST_FIELDS
            )
        )
        batch._requests = requests
        return batch

    def take(self, rows: Sequence[int]) -> "RequestBatch":
        """A new batch of the requests at ``rows``, in that order."""

        def select(column: tuple | None) -> list | None:
            return None if column is None else [column[i] for i in rows]

        batch = RequestBatch(*(select(getattr(self, name)) for name in REQUEST_FIELDS))
        if self._requests is not None:
            batch._requests = tuple(select(self._requests))
        return batch

    def requests(self) -> tuple[Request, ...]:
        """The batch as a tuple of :class:`Request` objects (built once)."""
        requests = self._requests
        if requests is None:
            with self._lock:
                requests = self._requests
                if requests is None:
                    n = len(self.arrival_s)
                    requests = self._requests = tuple(
                        map(
                            Request,
                            self.request_id,
                            self.arrival_s,
                            self.scenario,
                            self.deadline_s,
                            self.tenant or repeat(None, n),
                            self.session or repeat(None, n),
                            self.degradable or repeat(True, n),
                            self.pose or repeat(None, n),
                        )
                    )
        return requests

    def __len__(self) -> int:
        return len(self.arrival_s)

    def __getitem__(self, index):
        return self.requests()[index]

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RequestBatch):
            other = other.requests()
        if not isinstance(other, tuple):
            return NotImplemented
        return self.requests() == other

    def __hash__(self) -> int:
        return hash(self.requests())

    def __repr__(self) -> str:
        return f"RequestBatch({len(self)} requests)"


class RequestStream(abc.ABC):
    """Deterministic generator of a request arrival process.

    Subclasses implement :meth:`arrivals` (non-decreasing arrival times);
    the base class samples one scenario per arrival from the mix and stamps
    SLA deadlines, so ``generate(seed)`` is reproducible end to end.
    """

    def __init__(self, mix: ScenarioMix, sla_s: float | None = None) -> None:
        """Remember the scenario mix and the per-request SLA budget."""
        if sla_s is not None:
            require_positive("sla_s", sla_s)
        self.mix = mix
        self.sla_s = sla_s

    @abc.abstractmethod
    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Yield non-decreasing arrival times in seconds."""

    def pick(self, index: int, rng: random.Random) -> Scenario:
        """Choose the scenario of the ``index``-th request (mix sample by default)."""
        return self.mix.sample(rng)

    def generate(self, seed: int = 0) -> RequestBatch:
        """Materialize the stream: one immutable request batch per seed.

        Fills the batch's columns straight from :meth:`arrivals` and
        :meth:`pick` (in that ``rng`` call order, one pick per arrival) and
        stamps the stream-wide SLA deadline; no :class:`Request` is built
        here.  The contract -- sequential ids, non-decreasing arrivals,
        seeded determinism -- is certified for every subclass by
        ``tests/serve/stream_conformance.py``.
        """
        rng = random.Random(seed)
        pick = self.pick
        arrivals: list[float] = []
        scenarios: list[Scenario] = []
        add_arrival, add_scenario = arrivals.append, scenarios.append
        for index, arrival in enumerate(self.arrivals(rng)):
            add_arrival(arrival)
            add_scenario(pick(index, rng))
        sla = self.sla_s
        return RequestBatch(
            range(len(arrivals)),
            arrivals,
            scenarios,
            [arrival + sla for arrival in arrivals] if sla is not None else None,
        )


class PoissonStream(RequestStream):
    """Open-loop Poisson arrivals at a constant rate for a fixed duration."""

    def __init__(
        self,
        rate_rps: float,
        duration_s: float,
        mix: ScenarioMix,
        sla_s: float | None = None,
    ) -> None:
        """Configure a constant-rate memoryless arrival process."""
        require_positive("rate_rps", rate_rps)
        require_positive("duration_s", duration_s)
        super().__init__(mix, sla_s)
        self.rate_rps = rate_rps
        self.duration_s = duration_s

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Exponential inter-arrival gaps at ``rate_rps`` until ``duration_s``."""
        expovariate, rate, duration = rng.expovariate, self.rate_rps, self.duration_s
        t = 0.0
        while True:
            t += expovariate(rate)
            if t >= duration:
                return
            yield t


class DiurnalStream(RequestStream):
    """Sinusoidally modulated Poisson arrivals (smooth burst / trough cycle).

    The instantaneous rate swings from ``base_rps`` (start of the period)
    up to ``peak_rps`` (mid-period) and back; arrivals are drawn by thinning
    a ``peak_rps`` Poisson process, the textbook way to simulate an
    inhomogeneous Poisson process deterministically.
    """

    def __init__(
        self,
        base_rps: float,
        peak_rps: float,
        period_s: float,
        duration_s: float,
        mix: ScenarioMix,
        sla_s: float | None = None,
    ) -> None:
        """Configure the modulation envelope and its duration."""
        require_positive("base_rps", base_rps)
        require_positive("peak_rps", peak_rps)
        if peak_rps < base_rps:
            raise ValueError("need 0 < base_rps <= peak_rps")
        require_positive("period_s", period_s)
        require_positive("duration_s", duration_s)
        super().__init__(mix, sla_s)
        self.base_rps = base_rps
        self.peak_rps = peak_rps
        self.period_s = period_s
        self.duration_s = duration_s

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t``."""
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / self.period_s))
        return self.base_rps + (self.peak_rps - self.base_rps) * swing

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Thinned peak-rate Poisson arrivals following :meth:`rate_at`."""
        t = 0.0
        while True:
            t += rng.expovariate(self.peak_rps)
            if t >= self.duration_s:
                return
            if rng.random() * self.peak_rps <= self.rate_at(t):
                yield t


class TraceStream(RequestStream):
    """Replay of recorded arrival times, optionally with recorded scenarios."""

    def __init__(
        self,
        arrival_times_s: Sequence[float],
        mix: ScenarioMix,
        scenarios: Sequence[Scenario] | None = None,
        sla_s: float | None = None,
    ) -> None:
        """Validate and store the trace to replay."""
        super().__init__(mix, sla_s)
        times = tuple(float(t) for t in arrival_times_s)
        if not all(map(math.isfinite, times)):
            raise ValueError("trace arrival times must be finite")
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace arrival times must be non-decreasing")
        if any(t < 0.0 for t in times):
            raise ValueError("trace arrival times must be non-negative")
        if scenarios is not None and len(scenarios) != len(times):
            raise ValueError(
                f"{len(scenarios)} scenarios for {len(times)} arrivals"
            )
        self.arrival_times_s = times
        self.scenarios = tuple(scenarios) if scenarios is not None else None

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Yield the recorded arrival times verbatim."""
        yield from self.arrival_times_s

    def pick(self, index: int, rng: random.Random) -> Scenario:
        """Use the recorded scenario when the trace carries one."""
        if self.scenarios is not None:
            return self.scenarios[index]
        return super().pick(index, rng)
