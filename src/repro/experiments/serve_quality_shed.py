"""`serve-quality-shed`: the quality / attainment trade at fixed overload.

Holds the offered load at ~2x a single device's capacity and sweeps how
aggressively the fleet sheds quality: ``depth_per_step`` is how many queued
requests per worker it takes to climb one rung of the PSNR-priced
degradation ladder, so smaller values shed earlier and deeper.  The
uncontrolled baseline collapses; timid shedding recovers some attainment
at nearly full quality; aggressive shedding buys near-perfect attainment
at visibly lower delivered-quality percentiles (p05 is the quality an
unlucky user sees).  The ladder itself -- and its measured per-step
latency / PSNR pricing -- is documented in ``docs/serving-control.md``.
"""

from __future__ import annotations

from repro.experiments._serving import metric_columns, metrics, serve_rows
from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import ControlConfig, QueueDepthShedder, price_ladder
from repro.serve.request import PoissonStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Shedding aggressiveness swept by default (queued requests per rung);
#: larger is timider.  The uncontrolled baseline rides along as row one.
DEFAULT_DEPTHS = (16, 8, 4, 2)

#: What each shedding-aggressiveness setting reports at the fixed overload.
ROW_METRICS = metrics(
    "completed", "shed_fraction", "slo_attainment", "sla_attainment", "p95_latency_ms",
    "mean_quality", "p05_quality", "goodput_rps",
)


@experiment(
    "serve-quality-shed",
    title="Quality shedding: attainment vs delivered quality",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "rate_rps": "offered load (~2x capacity)",
        "duration_s": "stream duration in seconds",
        "sla_ms": "per-request latency SLA",
        "depths": "depth_per_step values to sweep (smaller sheds harder)",
        "seed": "request stream seed",
    },
    columns=(Column("config", "<10"), *metric_columns(ROW_METRICS)),
)
def run(
    device: str = "flexnerfer",
    rate_rps: float = 50.0,
    duration_s: float = 20.0,
    sla_ms: float = 250.0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[dict]:
    """Sweep shedding aggressiveness against one overloaded stream."""
    engine = engine or get_default_engine()
    ladder = price_ladder(REFERENCE_MIX.scenarios[0], device, engine=engine).ladder()
    stream = PoissonStream(
        rate_rps=rate_rps,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    baseline = ({"config": "none"}, (device,), FIFOScheduler(), None)
    shedding = [
        (
            {"config": f"shed/{depth}"},
            (device,),
            FIFOScheduler(),
            ControlConfig(shedder=QueueDepthShedder(ladder, depth_per_step=depth)),
        )
        for depth in depths
    ]
    return serve_rows(
        stream.generate(seed=seed), [baseline, *shedding], ROW_METRICS, engine
    )
