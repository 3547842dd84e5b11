"""Interactive-rendering sessions: correlated camera-pose frame streams.

A :class:`SessionStream` models users orbiting a scene interactively: each
session picks one scenario (correlation -- consecutive frames render the
same model/scene), starts at a seeded offset, and emits frames at a fixed
frame rate with optional per-frame jitter.  Every frame carries

* a deterministic orbit camera ``pose`` (azimuth sweeps 0..360 degrees over
  the session, fixed elevation and radius),
* a **strict per-frame deadline** (one frame period past arrival unless a
  looser ``sla_s`` is given), and
* the stream's ``degradable`` flag, which is what lets a
  :class:`~repro.serve.control.DegradationLadder` trade resolution for
  deadline attainment on interactive traffic -- or, pinned to ``False``,
  forbids exactly that.

Certified by ``tests/serve/stream_conformance.py`` like every stream.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.serve.request import (
    RequestBatch,
    RequestStream,
    Scenario,
    ScenarioMix,
)
from repro.validate import require_count, require_nonnegative, require_positive

#: Orbit camera elevation (degrees) and radius shared by all session poses.
ORBIT_ELEVATION_DEG = 30.0
ORBIT_RADIUS = 4.0


class SessionStream(RequestStream):
    """Frames of ``num_sessions`` interactive orbit sessions, merged.

    Each session contributes exactly ``frames_per_session`` requests, so
    ``generate`` always returns ``num_sessions * frames_per_session``
    requests -- rate conservation is exact, not statistical.  Frames of one
    session share its scenario and session id and arrive monotonically
    (jitter is validated to stay under the frame period).
    """

    def __init__(
        self,
        mix: ScenarioMix,
        num_sessions: int,
        frames_per_session: int,
        fps: float = 24.0,
        start_spread_s: float = 2.0,
        jitter_s: float = 0.0,
        sla_s: float | None = None,
        degradable: bool = True,
    ) -> None:
        """Configure the session count, frame cadence and deadline budget."""
        require_count("num_sessions", num_sessions, 1)
        require_count("frames_per_session", frames_per_session, 1)
        require_positive("fps", fps)
        require_nonnegative("start_spread_s", start_spread_s)
        period = 1.0 / fps
        if not 0.0 <= jitter_s < period:
            raise ValueError(
                f"jitter_s must be in [0, frame period): {jitter_s} vs {period}"
            )
        super().__init__(mix, sla_s if sla_s is not None else period)
        self.num_sessions = num_sessions
        self.frames_per_session = frames_per_session
        self.fps = fps
        self.start_spread_s = start_spread_s
        self.jitter_s = jitter_s
        self.degradable = degradable

    def pose_at(self, frame: int) -> tuple[float, float, float]:
        """Deterministic orbit pose of frame ``frame``: (azimuth, elev, radius)."""
        azimuth = 360.0 * frame / self.frames_per_session
        return (azimuth, ORBIT_ELEVATION_DEG, ORBIT_RADIUS)

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Merged frame arrival times of one realization (seed from ``rng``)."""
        yield from self.generate(seed=rng.getrandbits(32)).arrival_s

    def generate(self, seed: int = 0) -> RequestBatch:
        """Merge the per-session frame trains into one renumbered stream."""
        rng = random.Random(seed)
        period = 1.0 / self.fps
        events: list[tuple[float, int, int, Scenario]] = []
        for session in range(self.num_sessions):
            start = (
                rng.uniform(0.0, self.start_spread_s)
                if self.start_spread_s > 0.0
                else 0.0
            )
            scenario = self.mix.sample(rng)
            for frame in range(self.frames_per_session):
                jitter = (
                    rng.uniform(0.0, self.jitter_s) if self.jitter_s > 0.0 else 0.0
                )
                events.append((start + frame * period + jitter, session, frame, scenario))
        events.sort(key=lambda e: (e[0], e[1], e[2]))
        sla, degradable = self.sla_s, self.degradable
        return RequestBatch(
            range(len(events)),
            [arrival for arrival, _, _, _ in events],
            [scenario for _, _, _, scenario in events],
            [arrival + sla for arrival, _, _, _ in events],
            session=[session for _, session, _, _ in events],
            degradable=None if degradable is True else [degradable] * len(events),
            pose=[self.pose_at(frame) for _, _, frame, _ in events],
        )
