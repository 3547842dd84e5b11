"""`serve-batch-policy`: FIFO vs batch-up-to-deadline scheduling.

At an offered load past a single device's one-at-a-time capacity, plain
FIFO queueing diverges.  The batch-up-to-deadline policy groups
same-scenario requests and dispatches them together, so each additional
frame of a batch only pays the device's marginal cost
(:attr:`~repro.core.device.Device.batch_marginal_latency`); modest batch
bounds pull the p95/p99 tail back by an order of magnitude and cut energy
per request.  ``max_batch=1`` degenerates to FIFO-with-routing, which pins
the baseline.
"""

from __future__ import annotations

from repro.experiments._serving import metric_columns, metrics, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.request import PoissonStream
from repro.serve.scheduler import BatchDeadlineScheduler, FIFOScheduler
from repro.sim.sweep import SweepEngine

#: Batch-size bounds swept by default (on top of the plain FIFO baseline).
DEFAULT_MAX_BATCHES = (1, 2, 4, 8, 16)

#: What each scheduling policy reports at the reference load.
ROW_METRICS = metrics(
    "mean_batch", "p50_latency_ms", "p95_latency_ms", "p99_latency_ms", "goodput_rps",
    "sla_attainment", "energy_per_request_mj",
)


@experiment(
    "serve-batch-policy",
    title="Scheduling policy: FIFO vs batch-up-to-deadline",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rate_rps": "Poisson arrival rate (requests/s)",
        "duration_s": "stream duration in seconds",
        "max_batches": "batch-size bounds to sweep for the batching policy",
        "max_wait_ms": "longest a request may be held",
        "sla_ms": "per-request latency SLA",
        "seed": "request stream seed",
    },
    columns=(Column("policy", "<12"), *metric_columns(ROW_METRICS)),
)
def run(
    device: str = "flexnerfer",
    rate_rps: float = 40.0,
    duration_s: float = 30.0,
    max_batches: tuple[int, ...] = DEFAULT_MAX_BATCHES,
    max_wait_ms: float = 50.0,
    sla_ms: float = 1000.0,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Replay one overloaded stream under each policy and summarize."""
    stream = PoissonStream(
        rate_rps=rate_rps,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    fifo = ({"policy": "fifo"}, (device,), FIFOScheduler(), None)
    batching = [
        (
            {"policy": f"batch-{bound}"},
            (device,),
            BatchDeadlineScheduler(max_batch=bound, max_wait_s=max_wait_ms / 1e3),
            None,
        )
        for bound in max_batches
    ]
    requests = stream.generate(seed=seed)
    return serve_rows(requests, [fifo, *batching], ROW_METRICS, engine)
