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

from repro.experiments._serving import (
    MODELED_LADDER,
    Metric,
    metric_columns,
    metrics,
    serve_rows,
)
from repro.experiments.api import Column, experiment
from repro.serve.control import ControlConfig, QueueDepthShedder
from repro.serve.report import ServingReport
from repro.serve.request import Scenario, ScenarioMix
from repro.serve.scheduler import FIFOScheduler
from repro.serve.traffic import SessionStream
from repro.sim.sweep import SweepEngine

#: The interactive viewport: small enough that one FlexNeRFer sustains
#: ~8 concurrent 20 fps sessions at full quality.
INTERACTIVE_MIX = ScenarioMix(
    (Scenario("instant-ngp", scene="lego", width=160, height=160),)
)

#: Session concurrencies swept by default: under, near and ~2x past the
#: single device's capacity.
DEFAULT_SESSIONS = (4, 8, 16)


def _sessions_ok(report: ServingReport) -> int:
    """Sessions whose user saw every frame on time."""
    return sum(1 for session in report.by_session() if session.fully_met)


#: What each (session count, mode) cell reports; every request is a frame.
ROW_METRICS = (
    Metric("frames", "frames", ">6", "num_requests"),
    *metrics("completed"),
    Metric(
        "missed", "missed", ">6", lambda r: r.num_requests - r.met_deadline_requests
    ),
    *metrics("slo_attainment", "p95_latency_ms", "mean_quality"),
    Metric("sessions_ok", "sess-ok", ">7", _sessions_ok),
)


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
        Column("sessions", ">8"),
        Column("mode", "<12"),
        *metric_columns(ROW_METRICS),
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
) -> list[dict]:
    """Serve each session concurrency uncontrolled, shed, and pinned."""
    shed = ControlConfig(
        shedder=QueueDepthShedder(MODELED_LADDER, depth_per_step=depth_per_step)
    )
    # Both degradable modes replay one stream; only the pinned one differs.
    modes = (("none", None, True), ("shed", shed, True), ("shed+pinned", shed, False))
    rows: list[dict] = []
    for num_sessions in sessions:
        streams = {
            degradable: SessionStream(
                INTERACTIVE_MIX,
                num_sessions=num_sessions,
                frames_per_session=frames,
                fps=fps,
                start_spread_s=spread_s,
                jitter_s=jitter_ms / 1e3,
                degradable=degradable,
            ).generate(seed=seed)
            for degradable in (True, False)
        }
        for mode, control, degradable in modes:
            labels = {"sessions": num_sessions, "mode": mode}
            variant = (labels, (device,), FIFOScheduler(), control)
            rows += serve_rows(streams[degradable], [variant], ROW_METRICS, engine)
    return rows
