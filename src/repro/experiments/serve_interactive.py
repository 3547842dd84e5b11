"""`serve-interactive`: per-frame deadlines for interactive orbit sessions.

The paper's accelerator targets *interactive* neural rendering, where the
workload is not independent requests but sessions: users orbiting a scene
at a fixed frame rate, every frame due one period after it arrives.  This
study drives one device with a :class:`~repro.serve.traffic.SessionStream`
at growing concurrency and compares three regimes: uncontrolled, quality
shedding on the modelled degradation ladder (interactive frames trade
resolution for deadlines), and the same shedder against a *pinned*
(``degradable=False``) stream -- which demonstrates the degradable flag:
the ladder is active but may not touch any frame, so the pinned column
collapses exactly like the uncontrolled one.  ``sess-ok`` counts sessions
whose users saw every frame on time
(:meth:`~repro.serve.report.ServingReport.by_session`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments._serving import MODELED_LADDER
from repro.experiments.api import Column, experiment
from repro.serve.control import ControlConfig, QueueDepthShedder
from repro.serve.fleet import FleetSimulator
from repro.serve.request import Scenario, ScenarioMix
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import SessionStream
from repro.sim.sweep import SweepEngine, get_default_engine

#: The interactive viewport: small enough that one FlexNeRFer sustains
#: ~8 concurrent 20 fps sessions at full quality.
INTERACTIVE_MIX = ScenarioMix(
    (Scenario("instant-ngp", scene="lego", width=160, height=160),)
)

#: Session concurrencies swept by default: under, near and ~2x past the
#: single device's capacity.
DEFAULT_SESSIONS = (4, 8, 16)


@dataclass(frozen=True)
class InteractivePoint:
    """One (session count, mode) cell of the interactive study."""

    sessions: int
    mode: str
    frames: int
    completed: int
    missed: int
    slo_attainment: float
    p95_latency_ms: float
    mean_quality: float
    sessions_ok: int


@experiment(
    "serve-interactive",
    title="Interactive session frames: deadlines, shedding, pinned quality",
    tags=("serving",),
    params={
        "device": "device registry name to serve on",
        "sessions": "concurrent-session counts to sweep",
        "frames": "frames per session",
        "fps": "frame rate of each session",
        "spread_s": "session start-time spread",
        "jitter_ms": "per-frame arrival jitter",
        "depth_per_step": "queued frames per worker per degradation-ladder rung",
        "seed": "session stream seed",
    },
    columns=(
        Column("sessions", ">8", key="sessions"),
        Column("mode", "<12", key="mode"),
        Column("frames", ">6", key="frames"),
        Column("done", ">6", key="completed"),
        Column("missed", ">6", key="missed"),
        Column("SLO %", ">6.1f", value=lambda p: p.slo_attainment * 100),
        Column("p95 [ms]", ">9.1f", key="p95_latency_ms"),
        Column("quality", ">8.3f", key="mean_quality"),
        Column("sess-ok", ">7", key="sessions_ok"),
    ),
)
def run(
    device: str = "flexnerfer",
    sessions: tuple[int, ...] = DEFAULT_SESSIONS,
    frames: int = 40,
    fps: float = 20.0,
    spread_s: float = 1.0,
    jitter_ms: float = 5.0,
    depth_per_step: int = 2,
    seed: int = 0,
    engine: SweepEngine | None = None,
) -> list[InteractivePoint]:
    """Serve each session concurrency uncontrolled, shed, and pinned."""
    engine = engine or get_default_engine()
    shed = ControlConfig(
        shedder=QueueDepthShedder(MODELED_LADDER, depth_per_step=depth_per_step)
    )
    modes: tuple[tuple[str, ControlConfig | None, bool], ...] = (
        ("none", None, True),
        ("shed", shed, True),
        ("shed+pinned", shed, False),
    )
    points: list[InteractivePoint] = []
    for num_sessions in sessions:
        for mode, control, degradable in modes:
            stream = SessionStream(
                INTERACTIVE_MIX,
                num_sessions=num_sessions,
                frames_per_session=frames,
                fps=fps,
                start_spread_s=spread_s,
                jitter_s=jitter_ms / 1e3,
                degradable=degradable,
            )
            requests = stream.generate(seed=seed)
            simulator = FleetSimulator(
                (device,),
                scheduler=FIFOScheduler(),
                engine=engine,
                control=control,
            )
            report = simulator.run(requests)
            sessions_ok = sum(1 for s in report.by_session() if s.fully_met)
            points.append(
                InteractivePoint(
                    sessions=num_sessions,
                    mode=mode,
                    frames=report.num_requests,
                    completed=report.completed_requests,
                    missed=report.num_requests - report.met_deadline_requests,
                    slo_attainment=report.slo_attainment,
                    p95_latency_ms=report.p95_latency_s * 1e3,
                    mean_quality=report.mean_quality,
                    sessions_ok=sessions_ok,
                )
            )
    return points
