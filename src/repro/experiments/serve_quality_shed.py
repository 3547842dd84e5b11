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

from dataclasses import dataclass

from repro.experiments.api import Column, experiment
from repro.plan.space import REFERENCE_MIX
from repro.serve.control import ControlConfig, QueueDepthShedder, price_ladder
from repro.serve.fleet import FleetSimulator
from repro.serve.request import PoissonStream
from repro.serve.scheduler import FIFOScheduler
from repro.sim.sweep import SweepEngine, get_default_engine

#: Shedding aggressiveness swept by default (queued requests per rung);
#: larger is timider.  The uncontrolled baseline rides along as row one.
DEFAULT_DEPTHS = (16, 8, 4, 2)


@dataclass(frozen=True)
class ShedPoint:
    """One shedding-aggressiveness setting at the fixed overload."""

    config: str
    completed: int
    shed_fraction: float
    slo_attainment: float
    sla_attainment: float
    p95_latency_ms: float
    mean_quality: float
    p05_quality: float
    goodput_rps: float


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
    columns=(
        Column("config", "<10", key="config"),
        Column("done", ">6", key="completed"),
        Column("shed %", ">7.1f", value=lambda p: p.shed_fraction * 100),
        Column("SLO %", ">6.1f", value=lambda p: p.slo_attainment * 100),
        Column("SLA %", ">6.1f", value=lambda p: p.sla_attainment * 100),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("quality", ">8.3f", key="mean_quality"),
        Column("q p05", ">7.3f", key="p05_quality"),
        Column("goodput", ">8.1f", key="goodput_rps"),
    ),
)
def run(
    device: str = "flexnerfer",
    rate_rps: float = 50.0,
    duration_s: float = 20.0,
    sla_ms: float = 250.0,
    depths: tuple[int, ...] = DEFAULT_DEPTHS,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[ShedPoint]:
    """Sweep shedding aggressiveness against one overloaded stream."""
    engine = engine or get_default_engine()
    ladder = price_ladder(REFERENCE_MIX.scenarios[0], device, engine=engine).ladder()
    stream = PoissonStream(
        rate_rps=rate_rps,
        duration_s=duration_s,
        mix=REFERENCE_MIX,
        sla_s=sla_ms / 1e3,
    )
    requests = stream.generate(seed=seed)
    settings: list[tuple[str, ControlConfig | None]] = [("none", None)]
    settings.extend(
        (
            f"shed/{depth}",
            ControlConfig(shedder=QueueDepthShedder(ladder, depth_per_step=depth)),
        )
        for depth in depths
    )
    points: list[ShedPoint] = []
    for config, control in settings:
        simulator = FleetSimulator(
            (device,), scheduler=FIFOScheduler(), engine=engine, control=control
        )
        report = simulator.run(requests)
        points.append(
            ShedPoint(
                config=config,
                completed=report.completed_requests,
                shed_fraction=(
                    report.shed_requests / report.completed_requests
                    if report.completed_requests
                    else 0.0
                ),
                slo_attainment=report.slo_attainment,
                sla_attainment=report.sla_attainment,
                p95_latency_ms=report.p95_latency_s * 1e3,
                mean_quality=report.mean_quality,
                p05_quality=report.p05_quality,
                goodput_rps=report.goodput_rps,
            )
        )
    return points
