"""`serve-fleet-mix`: heterogeneous fleet compositions under diurnal load.

Serves one bursty (sinusoidally modulated) request stream against several
fleet compositions with the sparsity-aware router, which sends each request
to the idle device that serves its scenario fastest.  Two FlexNeRFers ride
the burst comfortably; fleets that substitute dense INT16 NeuRex chips lose
tail latency and goodput at the peak, but the mixed fleet recovers most of
the gap because the router steers pruned / low-precision scenarios onto the
FlexNeRFer where they are disproportionately cheap.
"""

from __future__ import annotations

from repro.experiments._serving import metric_columns, metrics, parse_fleet, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.request import DiurnalStream
from repro.serve.scheduler import SparsityAwareScheduler
from repro.sim.sweep import SweepEngine

#: Fleet compositions compared by default (``+`` separates fleet members).
DEFAULT_FLEETS = (
    "flexnerfer+flexnerfer",
    "flexnerfer+neurex",
    "neurex+neurex",
)

#: What each fleet composition reports (the table omits the request count).
ROW_METRICS = metrics(
    "num_requests", "p50_latency_ms", "p95_latency_ms", "goodput_rps", "sla_attainment",
    "energy_per_request_mj", "utilization",
)


@experiment(
    "serve-fleet-mix",
    title="Fleet compositions under diurnal load (sparsity-aware routing)",
    tags=("serving",),
    params={
        "fleets": "fleet compositions to compare, e.g. flexnerfer+neurex",
        "base_rps": "trough arrival rate (requests/s)",
        "peak_rps": "peak arrival rate (requests/s)",
        "period_s": "burst cycle period",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(Column("fleet", "<24"), *metric_columns(ROW_METRICS[1:])),
)
def run(
    fleets: tuple[str, ...] = DEFAULT_FLEETS,
    base_rps: float = 5.0,
    peak_rps: float = 30.0,
    period_s: float = 20.0,
    duration_s: float = 40.0,
    sla_ms: float = 300.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Replay one diurnal stream against each fleet and summarize."""
    stream = DiurnalStream(
        base_rps=base_rps,
        peak_rps=peak_rps,
        period_s=period_s,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    variants = [
        ({"fleet": spec}, parse_fleet(spec), SparsityAwareScheduler(), None)
        for spec in fleets
    ]
    return serve_rows(stream.generate(seed=seed), variants, ROW_METRICS, engine)
