"""`serve-overload-sla`: SLO attainment vs offered load per control mechanism.

The headline overload-control study: a single device is driven from just
below saturation to ~3x past it, once per control mode -- uncontrolled,
queue-cap admission, token-bucket admission, quality shedding, and
admission + shedding combined.  Attainment is measured against the
*offered* load (rejected requests count as misses), which is the number an
end user experiences.  Uncontrolled, SLO attainment collapses past the
knee because every request queues behind an unbounded backlog; admission
keeps the queue finite by turning the excess away; shedding instead serves
the excess from cheaper rungs of a PSNR-priced degradation ladder
(:func:`repro.serve.control.price_ladder`), trading delivered quality for
attainment without rejecting anyone.
"""

from __future__ import annotations

from repro.experiments._serving import metric_columns, metrics, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import (
    ControlConfig,
    QueueCapAdmission,
    QueueDepthShedder,
    TokenBucketAdmission,
    price_ladder,
)
from repro.serve.request import PoissonStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Offered loads swept by default: ~0.8x, 2x and 3x the single
#: FlexNeRFer's ~25 rps capacity on the reference mix.
DEFAULT_RATES = (20.0, 50.0, 75.0)

#: What each (offered load, control mode) cell reports.
ROW_METRICS = metrics(
    "num_requests", "completed", "rejected", "shed", "slo_attainment", "sla_attainment",
    "p95_latency_ms", "mean_quality", "goodput_rps",
)


@experiment(
    "serve-overload-sla",
    title="SLO attainment under overload per control mechanism",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rates": "Poisson arrival rates to sweep (requests/s)",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "max_queue": "queue-cap admission bound",
        "admit_rps": "token-bucket sustained admit rate",
        "admit_burst": "token-bucket burst headroom",
        "depth_per_step": "queued requests per worker per degradation-ladder rung",
        "seed": "request stream seed",
    },
    columns=(
        Column("rate", ">6.0f", key="rate_rps"),
        Column("mode", "<13"),
        *metric_columns(ROW_METRICS),
    ),
)
def run(
    device: str = "flexnerfer",
    rates: tuple[float, ...] = DEFAULT_RATES,
    duration_s: float = 20.0,
    sla_ms: float = 250.0,
    max_queue: int = 5,
    admit_rps: float = 24.0,
    admit_burst: float = 5.0,
    depth_per_step: int = 4,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Serve each offered load once per control mode and compare attainment."""
    engine = engine or get_default_engine()
    # Price the ladder once on the mix's dominant scenario; its measured
    # PSNR-derived qualities are what the shed modes deliver.
    ladder = price_ladder(REFERENCE_MIX.scenarios[0], device, engine=engine).ladder()
    # The scheduler and policies are immutable (admission state lives in
    # per-run sessions), so every run shares them.
    fifo = FIFOScheduler()
    cap = QueueCapAdmission(max_queue)
    bucket = TokenBucketAdmission(rate_rps=admit_rps, burst=admit_burst)
    shedder = QueueDepthShedder(ladder, depth_per_step=depth_per_step)
    modes = (
        ("none", None),
        ("queue-cap", ControlConfig(admission=cap)),
        ("token-bucket", ControlConfig(admission=bucket)),
        ("shed", ControlConfig(shedder=shedder)),
        ("cap+shed", ControlConfig(admission=cap, shedder=shedder)),
    )
    rows: list[dict] = []
    for rate in rates:
        stream = PoissonStream(
            rate_rps=rate,
            duration_s=duration_s,
            mix=REFERENCE_MIX,
            sla_s=sla_ms / 1e3,
        )
        variants = [
            ({"rate_rps": rate, "mode": mode}, (device,), fifo, control)
            for mode, control in modes
        ]
        rows += serve_rows(stream.generate(seed=seed), variants, ROW_METRICS, engine)
    return rows
