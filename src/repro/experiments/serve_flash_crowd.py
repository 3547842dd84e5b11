"""`serve-flash-crowd`: burst absorption per overload-control mechanism.

Flash crowds are the traffic shape memoryless streams cannot express: a
quiet baseline punctuated by seeded burst epochs during which the arrival
rate jumps an order of magnitude (a scene going viral).  This study drives
one device with a :class:`~repro.serve.traffic.FlashCrowdStream` at
increasing crowd intensities, once per control mode, and asks which
mechanism absorbs the burst best: uncontrolled queueing lets the backlog
poison every post-burst request, queue-cap admission sacrifices burst
requests to protect the baseline, and quality shedding serves the crowd
from cheaper degradation-ladder rungs (modelled qualities --
:data:`repro.experiments._serving.MODELED_LADDER` -- so the golden table
pins the serving simulation alone).
"""

from __future__ import annotations

from repro.experiments._serving import (
    MODELED_LADDER,
    metric_columns,
    metrics,
    serve_rows,
)
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import (
    ControlConfig,
    QueueCapAdmission,
    QueueDepthShedder,
)
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import FlashCrowdStream
from repro.sim.sweep import SweepEngine

#: Crowd rates swept by default: ~1.6x and ~3.2x the single FlexNeRFer's
#: ~25 rps capacity on the reference mix, against a 12 rps baseline.
DEFAULT_BURST_RATES = (40.0, 80.0)

#: What each (crowd rate, control mode) cell reports.
ROW_METRICS = metrics(
    "num_requests", "completed", "rejected", "shed", "slo_attainment", "p95_latency_ms",
    "mean_quality", "goodput_rps",
)


@experiment(
    "serve-flash-crowd",
    title="Flash-crowd burst absorption per control mechanism",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "base_rps": "baseline arrival rate between bursts",
        "burst_rates": "crowd arrival rates to sweep (requests/s during a burst)",
        "num_bursts": "seeded burst epochs per run",
        "burst_s": "duration of each burst window",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "max_queue": "queue-cap admission bound",
        "depth_per_step": "queued requests per worker per degradation-ladder rung",
        "seed": "request stream seed",
    },
    columns=(
        Column("burst", ">6.0f", key="burst_rps"),
        Column("mode", "<10"),
        *metric_columns(ROW_METRICS),
    ),
)
def run(
    device: str = "flexnerfer",
    base_rps: float = 12.0,
    burst_rates: tuple[float, ...] = DEFAULT_BURST_RATES,
    num_bursts: int = 2,
    burst_s: float = 2.5,
    duration_s: float = 20.0,
    sla_ms: float = 250.0,
    max_queue: int = 6,
    depth_per_step: int = 4,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Serve each crowd intensity once per control mode and compare."""
    # The scheduler and policies are immutable (admission state lives in
    # per-run sessions), so every run shares them.
    fifo = FIFOScheduler()
    cap = QueueCapAdmission(max_queue)
    shedder = QueueDepthShedder(MODELED_LADDER, depth_per_step=depth_per_step)
    modes = (
        ("none", None),
        ("queue-cap", ControlConfig(admission=cap)),
        ("shed", ControlConfig(shedder=shedder)),
        ("cap+shed", ControlConfig(admission=cap, shedder=shedder)),
    )
    rows: list[dict] = []
    for burst_rps in burst_rates:
        stream = FlashCrowdStream(
            base_rps=base_rps,
            burst_rps=burst_rps,
            duration_s=duration_s,
            mix=REFERENCE_MIX,
            num_bursts=num_bursts,
            burst_s=burst_s,
            sla_s=sla_ms / 1e3,
        )
        variants = [
            ({"burst_rps": burst_rps, "mode": mode}, (device,), fifo, control)
            for mode, control in modes
        ]
        rows += serve_rows(stream.generate(seed=seed), variants, ROW_METRICS, engine)
    return rows
