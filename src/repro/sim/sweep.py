"""Cached sweep harness over devices x workloads.

Every frame-simulating experiment in the evaluation is some cartesian sweep:
devices x NeRF models x precision modes x pruning ratios x batch sizes (and
sometimes scenes).  The :class:`SweepEngine` runs such sweeps through the
unified :class:`repro.core.device.Device` protocol with three layers of
memoisation:

* **workload cache** -- ``(model name, FrameConfig)`` -> built
  :class:`~repro.nerf.workload.Workload`, so sweeping ten devices over the
  same model builds its operation list once;
* **report cache** -- ``(device fingerprint, workload fingerprint, effective
  precision, effective pruning)`` ->
  :class:`~repro.core.accelerator.FrameReport`.  The *effective* knobs come
  from the device's capability flags, so asking NeuRex for five pruning
  ratios performs one simulation and returns five rows -- the flat bars of
  Fig. 19 for free;
* **probe tier** -- scene -> fitted
  :class:`~repro.nerf.renderer.InstantNGPRenderer` and ``(scene, size,
  samples)`` -> prepared :class:`~repro.nerf.renderer.RenderPlan`, the
  functional renders Fig. 13(a), Fig. 20(a) and the serving ladder's PSNR
  probe share (:meth:`SweepEngine.probe`).

Unique cache keys are simulated exactly once.  Devices are cached per
registry factory and reports per device fingerprint, so re-registering a
name (``register_device(..., overwrite=True)``) takes effect at once.
Experiments share one process-wide engine via :func:`get_default_engine`,
so e.g. Fig. 1 and Fig. 3 reuse each other's GPU frame reports.

Frame reports stay in memory: a frame simulation costs less than a
store round trip, and warm ``repro run`` invocations replay whole
experiments from the store's result tier instead.  The engine itself
uses an attached :class:`repro.perf.store.ResultStore`
(:meth:`SweepEngine.attach_store` / the ``store`` constructor argument)
only in the probe tier's fit, which reads and writes fitted grids
through the store's asset tier; the CLI's result tier and the planner's
plan tier find the process's store there too.  See
``docs/performance.md``.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

from repro.nerf.models import FrameConfig, get_model
from repro.sparse.formats import Precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import Device, DeviceFactory, FrameReport
    from repro.nerf.renderer import InstantNGPRenderer, RenderPlan
    from repro.nerf.workload import Workload
    from repro.perf.store import ResultStore

WorkloadKey = tuple[str, FrameConfig]
ReportKey = tuple[str, Hashable, Precision | None, float]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's aggregate of choice)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of an empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def workload_fingerprint(workload: "Workload") -> Hashable:
    """Stable, hashable identity of a workload's exact operation list."""
    return (
        workload.model_name,
        workload.image_width,
        workload.image_height,
        workload.batch_size,
        tuple(workload.ops),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of one cartesian sweep.

    ``None`` entries in the ``batch_sizes`` / ``scenes`` axes mean "use the
    base config's value"; precision ``None`` means the device's native mode.
    """

    devices: tuple[str, ...]
    models: tuple[str, ...]
    precisions: tuple[Precision | None, ...] = (None,)
    pruning_ratios: tuple[float, ...] = (0.0,)
    batch_sizes: tuple[int | None, ...] = (None,)
    scenes: tuple[str | None, ...] = (None,)
    base_config: FrameConfig = field(default_factory=FrameConfig)

    def resolve_config(self, scene: str | None, batch: int | None) -> FrameConfig:
        """The base config with one sweep point's scene / batch substituted."""
        return replace(
            self.base_config,
            scene_name=self.base_config.scene_name if scene is None else scene,
            batch_size=self.base_config.batch_size if batch is None else batch,
        )


@dataclass(frozen=True)
class SweepResult:
    """One row of a sweep: the requested point plus its frame report.

    ``precision`` / ``pruning_ratio`` / ``batch_size`` / ``scene`` identify
    the *requested* sweep point; ``effective_precision`` /
    ``effective_pruning`` are what the device actually ran (they differ when
    a capability flag collapsed the knob, in which case several rows share
    one cached report).
    """

    device: str
    model: str
    precision: Precision | None
    pruning_ratio: float
    batch_size: int
    scene: str
    effective_precision: Precision | None
    effective_pruning: float
    report: "FrameReport"

    @property
    def latency_s(self) -> float:
        """Frame latency of this sweep point's report, in seconds."""
        return self.report.latency_s

    @property
    def energy_j(self) -> float:
        """Frame energy of this sweep point's report, in joules."""
        return self.report.energy_j

    @property
    def fps(self) -> float:
        """Frames per second implied by this sweep point's latency."""
        return self.report.fps


@dataclass
class SweepCacheStats:
    """Counters exposing how much work the engine's caches saved."""

    workload_hits: int = 0
    workload_misses: int = 0
    report_hits: int = 0
    report_misses: int = 0

    @property
    def render_calls(self) -> int:
        """Physical ``render_frame`` invocations performed so far."""
        return self.report_misses


class SweepEngine:
    """Runs :class:`SweepSpec` sweeps with memoisation."""

    def __init__(self, store: "ResultStore | None" = None) -> None:
        #: Optional persistent store the probe tier fits grids through.
        self.store = store
        self.stats = SweepCacheStats()
        self._devices: dict["DeviceFactory", "Device"] = {}
        self._workloads: dict[WorkloadKey, "Workload"] = {}
        self._reports: dict[ReportKey, "FrameReport"] = {}
        self._renderers: dict[str, "InstantNGPRenderer"] = {}
        self._plans: dict[tuple[str, int, int], "RenderPlan"] = {}
        # Guards the caches when experiments run on a thread pool (the CLI's
        # --jobs); simulations stay serialized, cache reads stay consistent.
        self._lock = threading.RLock()

    def attach_store(self, store: "ResultStore | None") -> None:
        """Attach (or, with None, detach) the persistent result store."""
        with self._lock:
            self.store = store

    # -- cached building blocks ----------------------------------------------

    def device(self, name: str) -> "Device":
        """The engine's shared instance of the device registered under ``name``."""
        from repro.core.device import device_factory

        factory = device_factory(name)
        with self._lock:
            if factory not in self._devices:
                self._devices[factory] = factory()
            return self._devices[factory]

    def workload(self, model: str, config: FrameConfig | None = None) -> "Workload":
        """Build (or reuse) the one-frame workload of ``model`` under ``config``."""
        config = config or FrameConfig()
        key = (model.lower(), config)
        with self._lock:
            if key in self._workloads:
                self.stats.workload_hits += 1
            else:
                self.stats.workload_misses += 1
                self._workloads[key] = get_model(model).build_workload(config)
            return self._workloads[key]

    def report_key(
        self,
        device_name: str,
        workload: "Workload",
        precision: Precision | None,
        pruning_ratio: float,
    ) -> ReportKey:
        """Cache key of one simulation: device + workload + effective knobs."""
        from repro.core.device import device_fingerprint

        device = self.device(device_name)
        return (
            device_fingerprint(device_name),
            workload_fingerprint(workload),
            device.effective_precision(precision),
            device.effective_pruning(pruning_ratio),
        )

    def frame_report(
        self,
        device_name: str,
        model: str | None = None,
        *,
        workload: "Workload | None" = None,
        config: FrameConfig | None = None,
        precision: Precision | None = None,
        pruning_ratio: float = 0.0,
    ) -> "FrameReport":
        """One cached frame simulation (pass either ``model`` or ``workload``)."""
        if workload is None:
            if model is None:
                raise ValueError("provide either a model name or a workload")
            workload = self.workload(model, config)
        key = self.report_key(device_name, workload, precision, pruning_ratio)
        with self._lock:
            cached = self._reports.get(key)
            if cached is not None:
                self.stats.report_hits += 1
                return cached
            self.stats.report_misses += 1
            device = self.device(device_name)
            report = device.render_frame(
                workload,
                precision=device.effective_precision(precision),
                pruning_ratio=device.effective_pruning(pruning_ratio),
            )
            self._reports[key] = report
            return report

    def probe(
        self, scene: str, size: int, samples: int
    ) -> tuple["InstantNGPRenderer", "RenderPlan"]:
        """The scene's fitted renderer and its prepared ``size``-square view.

        Each scene is fitted once per engine (through the attached store's
        asset tier) and each ``(scene, size, samples)`` view prepared once;
        the renderer holds no per-render state, so callers on any thread
        finish renders off the shared plan.
        """
        from repro.nerf.rays import Camera
        from repro.nerf.renderer import InstantNGPRenderer
        from repro.nerf.scenes import get_scene

        fields = get_scene(scene)
        with self._lock:
            renderer = self._renderers.get(fields.name)
            if renderer is None:
                renderer = InstantNGPRenderer()
                renderer.fit_to_scene(fields, store=self.store)
                self._renderers[fields.name] = renderer
            key = (fields.name, size, samples)
            if key not in self._plans:
                camera = Camera(width=size, height=size, focal=size * 1.2)
                self._plans[key] = renderer.prepare_render(camera, num_samples=samples)
            return renderer, self._plans[key]

    # -- sweep execution ------------------------------------------------------

    def run(self, spec: SweepSpec) -> list[SweepResult]:
        """Execute the sweep and return one :class:`SweepResult` per point."""
        rows: list[SweepResult] = []
        points = itertools.product(
            spec.devices,
            spec.models,
            spec.scenes,
            spec.batch_sizes,
            spec.precisions,
            spec.pruning_ratios,
        )
        for device_name, model, scene, batch, precision, pruning in points:
            device = self.device(device_name)
            # The requested point identifies the row; a device that ignores
            # batching is still simulated at the base config's batch size.
            requested = spec.resolve_config(scene, batch)
            sim_config = (
                requested
                if device.supports_batching
                else spec.resolve_config(scene, None)
            )
            workload = self.workload(model, sim_config)
            report = self.frame_report(
                device_name,
                workload=workload,
                precision=precision,
                pruning_ratio=pruning,
            )
            rows.append(
                SweepResult(
                    device=device.name,
                    model=workload.model_name,
                    precision=precision,
                    pruning_ratio=pruning,
                    batch_size=requested.batch_size,
                    scene=requested.scene_name,
                    effective_precision=device.effective_precision(precision),
                    effective_pruning=device.effective_pruning(pruning),
                    report=report,
                )
            )
        return rows

    def clear(self) -> None:
        """Drop every cached workload, report and probe (devices are kept)."""
        with self._lock:
            self._workloads.clear()
            self._reports.clear()
            self._renderers.clear()
            self._plans.clear()
            self.stats = SweepCacheStats()


# -- reducers over sweep rows -------------------------------------------------


def index_rows(
    rows: Sequence[SweepResult], *fields: str
) -> dict[tuple, SweepResult]:
    """Index rows by a tuple of attribute names (last write wins)."""
    return {tuple(getattr(row, f) for f in fields): row for row in rows}


def aggregate(
    rows: Sequence[SweepResult],
    value: Callable[[SweepResult], float],
    by: Sequence[str] = (),
    reducer: Callable[[Iterable[float]], float] = geomean,
) -> dict[tuple, float]:
    """Group rows by ``by`` attributes and reduce ``value`` over each group."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        groups.setdefault(tuple(getattr(row, f) for f in by), []).append(value(row))
    return {key: reducer(values) for key, values in groups.items()}


#: Process-wide engine shared by the experiment modules, so repeated and
#: overlapping experiments reuse each other's simulations.
_DEFAULT_ENGINE: SweepEngine | None = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def get_default_engine() -> SweepEngine:
    """The shared process-wide :class:`SweepEngine`."""
    global _DEFAULT_ENGINE
    with _DEFAULT_ENGINE_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = SweepEngine()
        return _DEFAULT_ENGINE
