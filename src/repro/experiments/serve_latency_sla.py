"""`serve-latency-sla`: tail latency and goodput vs offered load.

Sweeps a Poisson arrival rate against one device and reports the latency
distribution users would see (p50/p95/p99), the goodput (requests per second
finishing inside the SLA) and energy per request.  Below saturation the
tail tracks the service time; past it, queueing blows the tail up and
goodput collapses -- the standard serving "knee" the fleet / batching
studies then attack.
"""

from __future__ import annotations

from repro.experiments._serving import metric_columns, metrics, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.request import PoissonStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine

#: Arrival rates swept by default (requests per second); the single
#: FlexNeRFer's capacity on the reference mix is ~25 rps.
DEFAULT_RATES = (10.0, 20.0, 30.0)

#: What each offered-load point of the latency / goodput curve reports.
ROW_METRICS = metrics(
    "num_requests", "p50_latency_ms", "p95_latency_ms", "p99_latency_ms", "goodput_rps",
    "sla_attainment", "energy_per_request_mj", "utilization",
)


@experiment(
    "serve-latency-sla",
    title="Serving tail latency / goodput vs offered load",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rates": "Poisson arrival rates to sweep (requests/s)",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(Column("rate", ">6.0f", key="rate_rps"), *metric_columns(ROW_METRICS)),
)
def run(
    device: str = "flexnerfer",
    rates: tuple[float, ...] = DEFAULT_RATES,
    duration_s: float = 30.0,
    sla_ms: float = 250.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Serve seeded Poisson streams at each rate and summarize the tails."""
    rows: list[dict] = []
    for rate in rates:
        stream = PoissonStream(
            rate_rps=rate,
            duration_s=duration_s,
            mix=REFERENCE_MIX,
            sla_s=sla_ms / 1e3,
        )
        variant = ({"rate_rps": rate}, (device,), FIFOScheduler(), None)
        rows += serve_rows(stream.generate(seed=seed), [variant], ROW_METRICS, engine)
    return rows
