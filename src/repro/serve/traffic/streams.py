"""Generative traffic beyond Poisson/diurnal: crowds, bursts, tenants.

Three arrival processes the overload-control and capacity-planning layers
need but memoryless traffic cannot express:

* :class:`FlashCrowdStream` -- a baseline Poisson process with seeded
  burst epochs during which the rate jumps to a crowd rate (a release
  announcement, a viral scene);
* :class:`MarkedBurstStream` -- a self-exciting (Hawkes-style) process in
  which every arrival recruits follow-on arrivals, producing the
  correlated clustering real request logs show;
* :class:`MultiTenantStream` -- a deterministic merge of per-tenant
  Poisson processes, each with its own rate, scenario mix and SLA, with
  the issuing tenant stamped on every request so
  :meth:`repro.serve.report.ServingReport.by_tenant` can break attainment
  down per tenant.

All three honor the :class:`~repro.serve.request.RequestStream` contract
(sequential ids, non-decreasing arrivals, seeded bit-determinism) and are
certified by ``tests/serve/stream_conformance.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.serve.request import (
    RequestBatch,
    RequestStream,
    Scenario,
    ScenarioMix,
)
from repro.validate import require_count, require_positive


def _poisson_count(rng: random.Random, mean: float) -> int:
    """Draw one Poisson(``mean``) variate with Knuth's product method.

    The stdlib has no Poisson sampler; the multiplicative algorithm uses
    only ``rng.random()`` so draws stay bit-deterministic under a fixed
    seed.  Fine for the small means the burst streams use (< ~10).
    """
    if mean <= 0.0:
        return 0
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class FlashCrowdStream(RequestStream):
    """Baseline Poisson traffic with seeded flash-crowd burst epochs.

    The instantaneous rate is ``base_rps`` except inside one of
    ``num_bursts`` burst windows of ``burst_s`` seconds, whose start times
    are drawn (seeded) uniformly over the horizon; inside a window the
    rate is ``burst_rps``.  Arrivals are generated by thinning a
    ``burst_rps`` Poisson process, exactly like
    :class:`~repro.serve.request.DiurnalStream` thins its peak rate, so
    the process is deterministic per seed.
    """

    def __init__(
        self,
        base_rps: float,
        burst_rps: float,
        duration_s: float,
        mix: ScenarioMix,
        num_bursts: int = 2,
        burst_s: float | None = None,
        sla_s: float | None = None,
    ) -> None:
        """Configure the baseline rate, the crowd rate and the burst windows."""
        require_positive("base_rps", base_rps)
        require_positive("duration_s", duration_s)
        require_positive("burst_rps", burst_rps)
        if burst_rps < base_rps:
            raise ValueError("need burst_rps >= base_rps")
        require_count("num_bursts", num_bursts, 1)
        if burst_s is None:
            burst_s = duration_s / 10.0
        if not 0.0 < burst_s <= duration_s:
            raise ValueError("need 0 < burst_s <= duration_s")
        super().__init__(mix, sla_s)
        self.base_rps = base_rps
        self.burst_rps = burst_rps
        self.duration_s = duration_s
        self.num_bursts = num_bursts
        self.burst_s = burst_s

    def burst_epochs(self, rng: random.Random) -> tuple[float, ...]:
        """Draw the sorted burst start times for one realization."""
        span = self.duration_s - self.burst_s
        return tuple(sorted(rng.uniform(0.0, span) for _ in range(self.num_bursts)))

    def rate_at(self, t: float, epochs: Sequence[float]) -> float:
        """Instantaneous arrival rate at ``t`` given the burst ``epochs``."""
        for start in epochs:
            if start <= t < start + self.burst_s:
                return self.burst_rps
        return self.base_rps

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Thinned ``burst_rps`` Poisson arrivals following :meth:`rate_at`."""
        epochs = self.burst_epochs(rng)
        t = 0.0
        while True:
            t += rng.expovariate(self.burst_rps)
            if t >= self.duration_s:
                return
            if rng.random() * self.burst_rps <= self.rate_at(t, epochs):
                yield t


class MarkedBurstStream(RequestStream):
    """Self-exciting (Hawkes-style) arrivals: every request recruits more.

    Simulated with the exact branching (cluster) construction: immigrant
    arrivals form a Poisson process at ``immigrant_rps``; each arrival --
    immigrant or descendant -- spawns ``Poisson(offspring_mean)`` children
    at exponentially distributed delays with mean ``decay_s``.  With
    ``offspring_mean < 1`` the cascade is subcritical and the long-run
    mean rate is ``immigrant_rps / (1 - offspring_mean)``.  Events are
    processed in FIFO order off a queue, so the realization is a pure
    function of the seed.
    """

    def __init__(
        self,
        immigrant_rps: float,
        duration_s: float,
        mix: ScenarioMix,
        offspring_mean: float = 0.5,
        decay_s: float = 0.5,
        sla_s: float | None = None,
    ) -> None:
        """Configure the immigrant rate and the self-excitation kernel."""
        require_positive("immigrant_rps", immigrant_rps)
        require_positive("duration_s", duration_s)
        if not 0.0 <= offspring_mean < 1.0:
            raise ValueError("offspring_mean must be in [0, 1) (subcritical)")
        require_positive("decay_s", decay_s)
        super().__init__(mix, sla_s)
        self.immigrant_rps = immigrant_rps
        self.duration_s = duration_s
        self.offspring_mean = offspring_mean
        self.decay_s = decay_s

    @property
    def mean_rps(self) -> float:
        """Long-run mean arrival rate of the subcritical cascade."""
        return self.immigrant_rps / (1.0 - self.offspring_mean)

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Sorted branching-process arrivals within ``[0, duration_s)``."""
        pending: list[float] = []
        t = 0.0
        while True:
            t += rng.expovariate(self.immigrant_rps)
            if t >= self.duration_s:
                break
            pending.append(t)
        events: list[float] = []
        head = 0
        while head < len(pending):
            parent = pending[head]
            head += 1
            events.append(parent)
            for _ in range(_poisson_count(rng, self.offspring_mean)):
                child = parent + rng.expovariate(1.0 / self.decay_s)
                if child < self.duration_s:
                    pending.append(child)
        yield from sorted(events)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a :class:`MultiTenantStream`: rate, mix and SLA."""

    name: str
    rate_rps: float
    mix: ScenarioMix
    sla_s: float | None = None

    def __post_init__(self) -> None:
        """Validate the tenant name, rate and SLA."""
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        require_positive(f"tenant {self.name!r}: rate_rps", self.rate_rps)
        if self.sla_s is not None:
            require_positive(f"tenant {self.name!r}: sla_s", self.sla_s)


def _combined_mix(tenants: Sequence[TenantSpec]) -> ScenarioMix:
    """Rate-weighted union of the tenants' mixes, first-appearance order."""
    order: list[Scenario] = []
    weight_of: dict[Scenario, float] = {}
    for tenant in tenants:
        weights = tenant.mix.weights
        if weights is None:
            weights = tuple(1.0 for _ in tenant.mix.scenarios)
        total = sum(weights)
        for scenario, weight in zip(tenant.mix.scenarios, weights):
            if scenario not in weight_of:
                order.append(scenario)
                weight_of[scenario] = 0.0
            weight_of[scenario] += tenant.rate_rps * (weight / total)
    return ScenarioMix(tuple(order), tuple(weight_of[s] for s in order))


class MultiTenantStream(RequestStream):
    """Deterministic merge of per-tenant Poisson processes.

    Each tenant gets its own sub-generator seeded from the stream seed and
    the tenant name (``random.Random`` hashes string seeds with SHA-512,
    so sub-streams are platform-stable), draws Poisson arrivals at its own
    rate, samples its own mix, and stamps its own SLA deadline.  The merge
    is sorted by ``(arrival, tenant index)`` and renumbered sequentially;
    ``request.tenant`` carries the tenant name for per-tenant reporting.

    The advertised ``mix`` is the rate-weighted union of the tenant mixes
    (used by schedulers that inspect the mix, and by the conformance
    harness's proportion check).
    """

    def __init__(self, tenants: Sequence[TenantSpec], duration_s: float) -> None:
        """Validate the tenant roster and the shared horizon."""
        tenants = tuple(tenants)
        if not tenants:
            raise ValueError("a multi-tenant stream needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        require_positive("duration_s", duration_s)
        super().__init__(_combined_mix(tenants), sla_s=None)
        self.tenants = tenants
        self.duration_s = duration_s

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Merged arrival times of one realization (seed drawn from ``rng``)."""
        yield from self.generate(seed=rng.getrandbits(32)).arrival_s

    def generate(self, seed: int = 0) -> RequestBatch:
        """Merge the per-tenant sub-streams into one renumbered stream."""
        events: list[tuple[float, int, Scenario, TenantSpec]] = []
        for tenant_index, tenant in enumerate(self.tenants):
            sub_rng = random.Random(f"{seed}/tenant/{tenant.name}")
            t = 0.0
            while True:
                t += sub_rng.expovariate(tenant.rate_rps)
                if t >= self.duration_s:
                    break
                events.append((t, tenant_index, tenant.mix.sample(sub_rng), tenant))
        events.sort(key=lambda e: (e[0], e[1]))
        return RequestBatch(
            range(len(events)),
            [arrival for arrival, _, _, _ in events],
            [scenario for _, _, scenario, _ in events],
            [
                arrival + tenant.sla_s if tenant.sla_s is not None else None
                for arrival, _, _, tenant in events
            ],
            tenant=[tenant.name for _, _, _, tenant in events],
        )
