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

Streams are pure generators: ``stream.generate(seed)`` returns an immutable
tuple of :class:`Request` objects, so the same seed always produces the same
demand regardless of scheduler, fleet or execution parallelism.
"""

from __future__ import annotations

import abc
import math
import operator
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

from repro.nerf.models import FrameConfig
from repro.sparse.formats import Precision


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number above zero.

    The one guard every generation input goes through: a plain ``value <=
    0`` test lets NaN through (every comparison with NaN is false), and a
    NaN rate or an infinite horizon makes a stream's ``generate`` loop
    forever.  Raises a one-line :class:`ValueError` naming ``name``.
    """
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_count(name: str, value: int, low: int) -> int:
    """Return ``value`` as an ``int`` if it is an integer no smaller than ``low``.

    The one guard every count knob (workers, queue caps, batch sizes,
    sessions) goes through: a plain ``value < 1`` test lets NaN, infinity
    and 2.5 through, and a NaN worker floor hangs an autoscaled run.  Any
    integer type is accepted (``operator.index``) except ``bool``.  Raises
    a one-line :class:`ValueError` naming ``name``.
    """
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < low:
        raise ValueError(f"{name} must be >= {low} and an integer, got {value!r}")
    return count


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

    def build_request(
        self, index: int, arrival_s: float, rng: random.Random
    ) -> Request:
        """Materialize the ``index``-th request at ``arrival_s``.

        The default stamps the mix-sampled scenario and the stream-wide SLA
        deadline; subclasses override this (or :meth:`generate` outright)
        to attach tenants, sessions, poses or per-request deadlines.  The
        contract either way -- sequential ids, non-decreasing arrivals,
        seeded determinism -- is certified for every subclass by
        ``tests/serve/stream_conformance.py``.
        """
        deadline = arrival_s + self.sla_s if self.sla_s is not None else None
        return Request(
            request_id=index,
            arrival_s=arrival_s,
            scenario=self.pick(index, rng),
            deadline_s=deadline,
        )

    def generate(self, seed: int = 0) -> tuple[Request, ...]:
        """Materialize the stream: one immutable request list per seed."""
        rng = random.Random(seed)
        build = self.build_request
        return tuple(
            build(i, arrival, rng) for i, arrival in enumerate(self.arrivals(rng))
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
