"""Overload control for the serving layer: autoscaling, admission, shedding.

The fleet simulator (:mod:`repro.serve.fleet`) replays a request stream
against a *fixed* pool of devices and serves every request at full quality.
Production serving stacks survive overload with three mechanism classes,
and this module provides deterministic, pluggable models of each:

* **Autoscaling** (:class:`QueueDepthAutoscaler`,
  :class:`LatencyTargetAutoscaler`): grow or shrink the *active* subset of
  the provisioned device pool.  Policies are evaluated on a fixed control
  tick; scale-out pays a configurable provisioning delay before the new
  worker accepts traffic, and scale-in *drains* -- a deactivated worker
  finishes its in-flight work and simply stops receiving dispatches.
* **Admission control** (:class:`TokenBucketAdmission`,
  :class:`QueueCapAdmission`): reject requests at ingress, before they
  queue.  Rejections are a first-class outcome on
  :class:`~repro.serve.report.ServingReport` -- conservation
  (``arrived == completed + rejected``) is asserted by the property suite.
* **Quality shedding** (:class:`DegradationLadder`,
  :class:`QueueDepthShedder`): under load, serve a cheaper, lower-PSNR
  variant of the requested scenario instead of rejecting it.  Ladder steps
  turn the same knobs the paper's fig. 20(a) studies (resolution, samples
  per ray, quantized precision, pruning), and :func:`price_ladder` measures
  each step's actual latency / energy / PSNR cost with the repository's own
  frame-report cache and renderer, so the simulator's quality numbers are
  grounded in the same models as the figures.

Everything here is deterministic and stateless-per-run: policies are frozen
dataclasses, admission state lives in a per-run session object, and the
shedding decision is a pure integer function of the queue depth a request
observes at ingress -- which is what lets the FIFO fast path reproduce the
event loop bit for bit.  See ``docs/serving-control.md`` for the guide.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.serve.request import Scenario
from repro.sparse.formats import Precision
from repro.validate import require_count, require_nonnegative, require_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import FrameReport
    from repro.sim.sweep import SweepEngine

#: PSNR (dB) treated as "indistinguishable from full quality": delivered
#: quality is ``min(1.0, psnr_db / FULL_QUALITY_DB)``, which keeps the
#: quality scale finite even when a ladder step is lossless (PSNR = inf).
FULL_QUALITY_DB = 40.0


# -- fleet state the policies observe -----------------------------------------


@dataclass(frozen=True)
class FleetSnapshot:
    """What a control policy sees at one evaluation instant.

    Snapshots are built by the simulator on every control tick: queue depth
    counts admitted-but-undispatched requests, ``busy_workers`` counts
    active workers still occupied, and ``recent_p95_s`` is the p95 latency
    over the policy's completion window (``None`` until anything finishes).
    """

    now: float
    queue_depth: int
    active_workers: int
    busy_workers: int
    pool_size: int
    recent_p95_s: float | None = None


# -- autoscaling ---------------------------------------------------------------


@dataclass(frozen=True)
class AutoscalePolicy(abc.ABC):
    """Decide how many workers of the provisioned pool should be active.

    Policies are pure functions of a :class:`FleetSnapshot`: the simulator
    evaluates :meth:`desired_workers` once per control tick and applies the
    (clamped) decision -- scale-out through a provisioning delay, scale-in
    by draining the highest-indexed active workers.  ``latency_window``
    bounds the completion history summarized into ``recent_p95_s``.
    """

    min_workers: int = 1
    max_workers: int | None = None
    latency_window: int = 64

    def __post_init__(self) -> None:
        """Validate the worker bounds and window size."""
        require_count("min_workers", self.min_workers, 1)
        if self.max_workers is not None:
            require_count("max_workers", self.max_workers, self.min_workers)
        require_count("latency_window", self.latency_window, 1)

    @abc.abstractmethod
    def desired_workers(self, snapshot: FleetSnapshot) -> int:
        """The active-worker count this policy wants given ``snapshot``."""

    def clamp(self, desired: int, pool_size: int) -> int:
        """Clamp ``desired`` into [min_workers, min(max_workers, pool_size)]."""
        ceiling = pool_size
        if self.max_workers is not None:
            ceiling = min(ceiling, self.max_workers)
        return max(self.min_workers, min(desired, ceiling))


@dataclass(frozen=True)
class QueueDepthAutoscaler(AutoscalePolicy):
    """Scale on queue backlog: out when deep, in when drained.

    Scale out by one worker when the queue holds at least
    ``scale_out_depth`` requests *per active worker*; scale in by one when
    the queue has drained to ``scale_in_depth`` or fewer (absolute) and at
    least one active worker is idle.  Integer arithmetic only, so the
    decision is trivially platform-stable.
    """

    scale_out_depth: int = 4
    scale_in_depth: int = 0

    def __post_init__(self) -> None:
        """Validate the depth thresholds."""
        super().__post_init__()
        require_count("scale_out_depth", self.scale_out_depth, 1)
        require_count("scale_in_depth", self.scale_in_depth, 0)

    def desired_workers(self, snapshot: FleetSnapshot) -> int:
        """One-step hysteresis on the per-worker backlog."""
        active = snapshot.active_workers
        if snapshot.queue_depth >= self.scale_out_depth * active:
            return active + 1
        if (
            snapshot.queue_depth <= self.scale_in_depth
            and snapshot.busy_workers < active
        ):
            return active - 1
        return active


@dataclass(frozen=True)
class LatencyTargetAutoscaler(AutoscalePolicy):
    """Track a p95 latency target over the recent completion window.

    Scale out by one worker while the windowed p95 exceeds ``target_p95_s``;
    scale in by one when it has fallen below ``low_fraction * target_p95_s``
    and an active worker is idle.  Holds while no completions have been
    observed yet.
    """

    target_p95_s: float = 0.25
    low_fraction: float = 0.5

    def __post_init__(self) -> None:
        """Validate the latency target and hysteresis band."""
        super().__post_init__()
        require_positive("target_p95_s", self.target_p95_s)
        if not 0.0 < self.low_fraction < 1.0:
            raise ValueError("low_fraction must be in (0, 1)")

    def desired_workers(self, snapshot: FleetSnapshot) -> int:
        """One-step hysteresis on the windowed p95 latency."""
        active = snapshot.active_workers
        p95 = snapshot.recent_p95_s
        if p95 is None:
            return active
        if p95 > self.target_p95_s:
            return active + 1
        if p95 < self.low_fraction * self.target_p95_s and (
            snapshot.busy_workers < active
        ):
            return active - 1
        return active


# -- admission control ---------------------------------------------------------


class AdmissionSession(abc.ABC):
    """Per-run admission state: decides accept/reject at each arrival.

    Sessions are created fresh for every :meth:`FleetSimulator.run
    <repro.serve.fleet.FleetSimulator.run>` call, so repeated runs of the
    same simulator see identical admission behaviour.  ``admit`` is called
    once per request in ``(arrival, request_id)`` order with the queue
    depth the request observes at ingress -- the same order and depths on
    the event loop and the FIFO fast path.
    """

    #: Human-readable rejection reason recorded on rejected requests.
    reason: str = "admission"

    @abc.abstractmethod
    def admit(self, now: float, queue_depth: int) -> bool:
        """Whether to accept the request arriving at ``now``."""


@dataclass(frozen=True)
class AdmissionPolicy(abc.ABC):
    """Factory for per-run :class:`AdmissionSession` state."""

    @abc.abstractmethod
    def session(self) -> AdmissionSession:
        """A fresh mutable session for one simulation run."""


class _TokenBucketSession(AdmissionSession):
    """Mutable token-bucket state for one run."""

    reason = "token-bucket"

    def __init__(self, rate_rps: float, burst: float) -> None:
        """Start with a full bucket; refill is lazy from the first arrival."""
        self._rate = rate_rps
        self._burst = burst
        self._tokens = burst
        self._last: float | None = None

    def admit(self, now: float, queue_depth: int) -> bool:
        """Refill by elapsed time, then spend one token if available."""
        if self._last is not None:
            self._tokens = min(
                self._burst, self._tokens + (now - self._last) * self._rate
            )
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TokenBucketAdmission(AdmissionPolicy):
    """Classic token bucket: sustained ``rate_rps`` with ``burst`` headroom.

    The bucket starts full and refills continuously; each admitted request
    spends one token.  Arrivals that find less than one token are rejected
    -- a rate limiter that is independent of queue state, which makes it
    the right tool when the *offered* load must be capped regardless of
    how fast the fleet is currently draining.
    """

    rate_rps: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        """Validate rate and burst."""
        require_positive("rate_rps", self.rate_rps)
        if not (math.isfinite(self.burst) and self.burst >= 1.0):
            raise ValueError(
                f"burst must be finite and >= 1 (room for one request), "
                f"got {self.burst!r}"
            )

    def session(self) -> AdmissionSession:
        """A full bucket, refilling from the first arrival onward."""
        return _TokenBucketSession(self.rate_rps, self.burst)


class _QueueCapSession(AdmissionSession):
    """Stateless queue-cap check wrapped in the session interface."""

    reason = "queue-cap"

    def __init__(self, max_queue: int) -> None:
        """Remember the queue bound."""
        self._max_queue = max_queue

    def admit(self, now: float, queue_depth: int) -> bool:
        """Accept while the observed queue is below the cap."""
        return queue_depth < self._max_queue


@dataclass(frozen=True)
class QueueCapAdmission(AdmissionPolicy):
    """Reject arrivals that would push the queue past ``max_queue``.

    Load shedding keyed to the *actual* backlog: under a burst the queue
    fills to the cap and the overflow is rejected immediately instead of
    waiting out an SLA it could never meet.
    """

    max_queue: int

    def __post_init__(self) -> None:
        """Validate the cap."""
        require_count("max_queue", self.max_queue, 1)

    def session(self) -> AdmissionSession:
        """A session enforcing the (stateless) cap."""
        return _QueueCapSession(self.max_queue)


# -- quality shedding ----------------------------------------------------------


@dataclass(frozen=True)
class DegradationStep:
    """One rung of a degradation ladder: which knobs to turn, how far.

    ``resolution_scale`` scales both image dimensions; ``sample_scale``
    scales samples per ray.  The frame-level cost model has no per-request
    samples knob, so :meth:`apply` folds ``sample_scale`` into an
    *equivalent resolution* (total work is rays x samples, so halving the
    samples prices like scaling each dimension by ``sqrt(0.5)``), while
    :func:`price_ladder` measures the PSNR impact with a probe render that
    genuinely reduces the sample count.  ``precision`` / ``pruning_ratio``
    override the scenario's quant / sparsity knobs when set.
    """

    label: str
    resolution_scale: float = 1.0
    sample_scale: float = 1.0
    precision: Precision | None = None
    pruning_ratio: float | None = None

    def __post_init__(self) -> None:
        """Validate the scale factors and knob overrides."""
        if not 0.0 < self.resolution_scale <= 1.0:
            raise ValueError("resolution_scale must be in (0, 1]")
        if not 0.0 < self.sample_scale <= 1.0:
            raise ValueError("sample_scale must be in (0, 1]")
        if self.pruning_ratio is not None and not 0.0 <= self.pruning_ratio < 1.0:
            raise ValueError("pruning_ratio must be in [0, 1)")

    @property
    def work_scale(self) -> float:
        """Linear-dimension scale equivalent to this step's total work cut."""
        return self.resolution_scale * math.sqrt(self.sample_scale)

    def apply(self, scenario: Scenario) -> Scenario:
        """The degraded scenario this step serves in place of ``scenario``."""
        scale = self.work_scale
        return Scenario(
            model=scenario.model,
            scene=scenario.scene,
            width=max(1, round(scenario.width * scale)),
            height=max(1, round(scenario.height * scale)),
            precision=(
                self.precision if self.precision is not None else scenario.precision
            ),
            pruning_ratio=(
                self.pruning_ratio
                if self.pruning_ratio is not None
                else scenario.pruning_ratio
            ),
        )


#: Default ladder steps, mildest first: quantize, then trade samples, then
#: resolution, then both resolution and aggressive quantization.
DEFAULT_LADDER_STEPS: tuple[DegradationStep, ...] = (
    DegradationStep("int8", precision=Precision.INT8),
    DegradationStep("int8+half-samples", sample_scale=0.5, precision=Precision.INT8),
    DegradationStep("int8+half-res", resolution_scale=0.5, precision=Precision.INT8),
    DegradationStep("int4+half-res", resolution_scale=0.5, precision=Precision.INT4),
)


@dataclass(frozen=True)
class DegradationLadder:
    """An ordered menu of degradation steps with their delivered qualities.

    Steps run mildest to most aggressive; shedding *level* ``L`` means
    "serve step ``L`` of the ladder" with level 0 reserved for full quality.
    ``qualities`` carries the delivered-quality score of each step on the
    0-1 scale (1.0 = full quality); build a measured ladder with
    :func:`price_ladder`, or pass modelled values directly (the property
    suite does) when no renderer is in the loop.
    """

    steps: tuple[DegradationStep, ...]
    qualities: tuple[float, ...]

    def __post_init__(self) -> None:
        """Validate that every step carries an in-range quality score."""
        if not self.steps:
            raise ValueError("a degradation ladder needs at least one step")
        if len(self.qualities) != len(self.steps):
            raise ValueError(
                f"{len(self.qualities)} qualities for {len(self.steps)} steps"
            )
        if any(not 0.0 < q <= 1.0 for q in self.qualities):
            raise ValueError("step qualities must be in (0, 1]")

    @property
    def depth(self) -> int:
        """Number of rungs (the maximum shedding level)."""
        return len(self.steps)

    def quality_of(self, level: int) -> float:
        """Delivered quality at ``level`` (level 0 is full quality)."""
        if level == 0:
            return 1.0
        return self.qualities[level - 1]

    def apply(self, scenario: Scenario, level: int) -> Scenario:
        """The scenario actually served at ``level`` (level 0: unchanged)."""
        if level == 0:
            return scenario
        return self.steps[level - 1].apply(scenario)


@dataclass(frozen=True)
class SheddingPolicy(abc.ABC):
    """Map ingress queue state to a degradation level on a ladder.

    The level is decided *when the request is admitted* from the queue
    depth it observes -- a pure integer function, evaluated in the same
    ``(arrival, request_id)`` order by the event loop and the FIFO fast
    path, which is what keeps the two bit-identical under shedding.
    """

    ladder: DegradationLadder

    @abc.abstractmethod
    def level(self, queue_depth: int, active_workers: int) -> int:
        """Shedding level (0..ladder.depth) for a request seeing ``queue_depth``."""


@dataclass(frozen=True)
class QueueDepthShedder(SheddingPolicy):
    """Climb one ladder rung per ``depth_per_step`` queued requests per worker.

    With the default ladder and ``depth_per_step=4`` on a single worker:
    a backlog of 0-3 serves full quality, 4-7 serves step 1, and so on,
    saturating at the ladder's deepest step.
    """

    depth_per_step: int = 4

    def __post_init__(self) -> None:
        """Validate the per-level depth quantum."""
        require_count("depth_per_step", self.depth_per_step, 1)

    def level(self, queue_depth: int, active_workers: int) -> int:
        """Integer backlog-per-worker divided down into a ladder level."""
        per_worker = queue_depth // max(1, active_workers)
        return min(self.ladder.depth, per_worker // self.depth_per_step)


# -- ladder pricing ------------------------------------------------------------


@dataclass(frozen=True)
class PricedStep:
    """One ladder step with its measured cost and quality.

    ``speedup`` / ``energy_gain`` are the full-quality cost divided by this
    step's cost on the pricing device; ``psnr_db`` is the probe render's
    PSNR against the full-quality render (``inf`` when lossless) and
    ``quality`` its normalization onto the 0-1 delivered-quality scale.
    """

    step: DegradationStep
    latency_s: float
    energy_j: float
    speedup: float
    energy_gain: float
    psnr_db: float
    quality: float


@dataclass(frozen=True)
class LadderPricing:
    """A ladder priced on one (scenario, device) with the repo's own models."""

    scenario: Scenario
    device: str
    base_latency_s: float
    base_energy_j: float
    rows: tuple[PricedStep, ...]

    def __post_init__(self) -> None:
        """Reject rungs that price *slower* than full quality.

        A degradation rung exists to buy latency headroom; a step whose
        measured speedup is below 1 would make the shedder serve backlog
        more slowly at lower quality -- strictly worse on both axes -- so
        it is a configuration error, not a valid ladder.
        """
        for row in self.rows:
            if row.speedup < 1.0:
                raise ValueError(
                    f"ladder step '{row.step.label}' on {self.device} prices "
                    f"slower than full quality (speedup {row.speedup:.3f} < 1)"
                )

    def ladder(self) -> DegradationLadder:
        """The measured :class:`DegradationLadder` (qualities from PSNR)."""
        return DegradationLadder(
            steps=tuple(r.step for r in self.rows),
            qualities=tuple(r.quality for r in self.rows),
        )


def quality_from_psnr(psnr_db: float) -> float:
    """Normalize a PSNR (dB) onto the 0-1 delivered-quality scale."""
    if psnr_db == float("inf"):
        return 1.0
    return max(0.0, min(1.0, psnr_db / FULL_QUALITY_DB))


def _nearest_resize(image: np.ndarray, size: int) -> np.ndarray:
    """Nearest-neighbour upsample of a square image to ``size`` pixels."""
    height, width = image.shape[:2]
    rows = (np.arange(size) * height) // size
    cols = (np.arange(size) * width) // size
    return image[rows][:, cols]


def price_ladder(
    scenario: Scenario,
    device: str,
    steps: Sequence[DegradationStep] = DEFAULT_LADDER_STEPS,
    engine: "SweepEngine | None" = None,
    probe_size: int = 32,
    probe_samples: int = 24,
) -> LadderPricing:
    """Measure each ladder step's latency / energy / PSNR on ``device``.

    Costs come from the shared frame-report cache (the *same* cached frame
    simulations the figures and the fleet simulator use), so pricing a
    ladder warms exactly the reports the shedding simulator will ask for.
    Quality comes from a small probe render (fig. 20(a)'s machinery): the
    engine's probe tier (:meth:`~repro.sim.sweep.SweepEngine.probe`) fits
    the scenario's scene and prepares each probe view once per engine --
    through the store's asset tier when available.  The probe is rendered
    at full quality in FP32, then re-rendered per step with the step's
    resolution / sample / precision knobs applied and compared by PSNR.
    Pruning steps are priced for cost but treated as visually lossless by
    the probe (the renderer has no pruning knob); model such steps'
    qualities explicitly if that matters.
    """
    from repro.quant.metrics import psnr
    from repro.sim.sweep import get_default_engine

    engine = engine or get_default_engine()
    base_report = _scenario_report(engine, device, scenario)
    renderer, plan = engine.probe(scenario.scene, probe_size, probe_samples)
    reference = renderer.render_prepared(plan)

    rows = []
    for step in steps:
        degraded = step.apply(scenario)
        report = _scenario_report(engine, device, degraded)
        size = max(1, round(probe_size * step.resolution_scale))
        samples = max(1, round(probe_samples * step.sample_scale))
        _, plan = engine.probe(scenario.scene, size, samples)
        image = renderer.render_prepared(plan, precision=step.precision)
        if size != probe_size:
            image = _nearest_resize(image, probe_size)
        psnr_db = psnr(reference, image)
        rows.append(
            PricedStep(
                step=step,
                latency_s=report.latency_s,
                energy_j=report.energy_j,
                speedup=base_report.latency_s / report.latency_s,
                energy_gain=base_report.energy_j / report.energy_j,
                psnr_db=psnr_db,
                quality=quality_from_psnr(psnr_db),
            )
        )
    return LadderPricing(
        scenario=scenario,
        device=device,
        base_latency_s=base_report.latency_s,
        base_energy_j=base_report.energy_j,
        rows=tuple(rows),
    )


def _scenario_report(
    engine: "SweepEngine", device: str, scenario: Scenario
) -> "FrameReport":
    """The cached frame report pricing ``scenario`` on ``device``."""
    return engine.frame_report(
        device,
        scenario.model,
        config=scenario.frame_config(),
        precision=scenario.precision,
        pruning_ratio=scenario.pruning_ratio,
    )


# -- the control-plane configuration ------------------------------------------


@dataclass(frozen=True)
class ControlConfig:
    """The control plane one :class:`~repro.serve.fleet.FleetSimulator` runs.

    Any subset of the three mechanisms may be present.  ``tick_s`` is the
    autoscaler evaluation cadence; ``provision_delay_s`` is how long a
    scale-out decision takes before the new worker accepts traffic;
    ``initial_workers`` seeds the active count when an autoscaler is
    present (default: the policy's ``min_workers``).  Admission and
    shedding are closed-form at ingress and keep the FIFO fast path
    available; an autoscaler's tick feedback loop forces the event loop
    (see :attr:`fast_path_compatible`).
    """

    admission: AdmissionPolicy | None = None
    shedder: SheddingPolicy | None = None
    autoscaler: AutoscalePolicy | None = None
    tick_s: float = 0.05
    provision_delay_s: float = 0.5
    initial_workers: int | None = None

    def __post_init__(self) -> None:
        """Validate the tick cadence and provisioning model."""
        require_positive("tick_s", self.tick_s)
        require_nonnegative("provision_delay_s", self.provision_delay_s)
        if self.initial_workers is not None:
            require_count("initial_workers", self.initial_workers, 1)

    @property
    def fast_path_compatible(self) -> bool:
        """Whether FIFO fleets under this config keep the closed-form fast path."""
        return self.autoscaler is None

    @property
    def active(self) -> bool:
        """Whether any mechanism is actually configured."""
        return (
            self.admission is not None
            or self.shedder is not None
            or self.autoscaler is not None
        )
