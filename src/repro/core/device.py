"""Unified device protocol, frame loop and registry for every simulated device.

The evaluation compares one accelerator against five baseline device
families.  This module defines the one interface they all share:

* :class:`Device` -- the base class of every device model, with a uniform
  ``render_frame(workload, precision=None, pruning_ratio=0.0)`` plus
  capability flags (``supports_precision`` / ``supports_pruning`` /
  ``supports_batching``) that tell callers -- most importantly the
  :class:`repro.sim.sweep.SweepEngine` -- which knobs actually change the
  device's behaviour;
* the one frame loop, :meth:`Device.render_frame`: a device's
  :meth:`~Device._prepare` hook applies (or rejects) the knobs, its
  :meth:`~Device._op_record` costs each op, and the base class builds the
  :class:`~repro.sim.trace.ExecutionTrace` and :class:`FrameReport`;
* the one cost hook: a device overrides :meth:`~Device.area` and
  :meth:`~Device.power` (per-block reports); the totals
  (:meth:`~Device.area_mm2`, :meth:`~Device.power_w`) derive from them;
* device fingerprints (:meth:`Device.fingerprint`, :func:`canonical_digest`,
  and :func:`device_fingerprint`, memoised per registered factory) that key
  the sweep engine's caches and the persistent result store;
* :data:`DEVICE_REGISTRY` -- name -> factory mapping, so new devices are one
  registry entry away from every sweep and experiment.

The device classes themselves live next to their models: FlexNeRFer in
:mod:`repro.core.accelerator`, every baseline (NeuRex, the GPUs, NVDLA,
the TPU) in :mod:`repro.baselines`.  This module defines no device.

Unsupported knobs are handled per device, as flagged: the GPUs *raise*
:class:`UnsupportedKnobError` when asked for a precision mode or pruning
(nothing in their roofline model could honour it), while NeuRex silently
no-ops (it always computes densely at INT16 -- exactly the flat bars of
Fig. 19).  A pruning ratio outside ``[0, 1)`` is rejected on every device.
Registry factories import their classes lazily so that ``repro.core`` and
``repro.baselines`` stay free of import cycles.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING, Callable, ClassVar

from repro.sparse.formats import Precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.cost import AreaReport, PowerReport
    from repro.nerf.workload import Op, Workload
    from repro.sim.trace import ExecutionTrace, OpRecord


@dataclass
class FrameReport:
    """Latency / energy summary of rendering one frame."""

    device: str
    model_name: str
    latency_s: float
    energy_j: float
    trace: "ExecutionTrace"
    precision: Precision | None = None
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def fps(self) -> float:
        """Frames per second (``inf`` for a zero-latency frame)."""
        return 1.0 / self.latency_s if self.latency_s > 0 else float("inf")

    @property
    def frame_time_ms(self) -> float:
        """Frame latency in milliseconds."""
        return self.latency_s * 1e3


class UnsupportedKnobError(ValueError):
    """A device was asked for a knob (precision / pruning) it cannot honour."""


def _canonical(value: Any) -> Any:
    """JSON-safe canonical form of fingerprint state (dataclasses, enums)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": type(value).__qualname__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def canonical_digest(value: Any) -> str:
    """SHA-1 hex digest of ``value``'s canonical JSON representation.

    Raises TypeError for values :func:`_canonical` cannot make
    deterministic (sets, arbitrary objects): a silent ``repr`` fallback
    would embed memory addresses or hash-randomized orderings and make
    fingerprints differ on every interpreter start, which the persistent
    result store could never recover from.
    """
    payload = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha1(payload.encode()).hexdigest()


#: Precision modes a precision-scalable device is swept over by default.
PRECISION_MODES = (Precision.INT16, Precision.INT8, Precision.INT4)


def _check_pruning_ratio(pruning_ratio: float) -> None:
    """Reject a pruning ratio outside ``[0, 1)``, NaN and infinities included."""
    if not 0.0 <= pruning_ratio < 1.0:
        raise ValueError(f"pruning ratio must be in [0, 1), got {pruning_ratio}")


class Device:
    """Uniform frame-level interface over every simulated device.

    Capability flags describe which sweep knobs change the device's
    behaviour; the sweep engine uses them (via :meth:`effective_precision` /
    :meth:`effective_pruning`) to collapse redundant sweep points onto one
    cached simulation.  Subclasses model a device by overriding
    :meth:`_op_record` (and :meth:`_prepare` when they honour or ignore
    knobs); :meth:`render_frame` is the one frame loop they all share.
    """

    #: Display name (matches the paper's figures, e.g. ``"RTX 2080 Ti"``).
    name: str = "device"
    #: Whether ``precision`` changes the device's latency / energy.
    supports_precision: ClassVar[bool] = False
    #: Whether structured pruning changes the device's latency / energy.
    supports_pruning: ClassVar[bool] = False
    #: Whether the device benefits from sweeping the ray batch size.
    supports_batching: ClassVar[bool] = True
    #: The precision the device natively computes at (None -> FP32).
    native_precision: ClassVar[Precision | None] = None

    # -- the frame loop --------------------------------------------------------

    def render_frame(
        self,
        workload: "Workload",
        precision: Precision | None = None,
        pruning_ratio: float = 0.0,
    ) -> FrameReport:
        """Estimate latency / energy of rendering one frame of ``workload``."""
        from repro.sim.trace import ExecutionTrace

        _check_pruning_ratio(pruning_ratio)
        workload, precision = self._prepare(workload, precision, pruning_ratio)
        trace = ExecutionTrace(device=self.name, model_name=workload.model_name)
        for op in workload.ops:
            trace.add(self._op_record(op, precision))
        return FrameReport(
            device=self.name,
            model_name=workload.model_name,
            latency_s=trace.total_time_s,
            energy_j=trace.total_energy_j,
            trace=trace,
            precision=precision,
        )

    def _prepare(
        self,
        workload: "Workload",
        precision: Precision | None,
        pruning_ratio: float,
    ) -> tuple["Workload", Precision | None]:
        """Apply the knobs: the workload to run and the precision it runs at.

        The default suits fixed-function devices: they compute at their
        native precision and schedule pruned zeros like any other operand,
        so any other precision and any pruning raise.
        """
        if precision is not None and precision is not self.native_precision:
            native = self.native_precision.name if self.native_precision else "FP32"
            raise UnsupportedKnobError(
                f"{self.name} computes at {native} only (requested {precision.name})"
            )
        if pruning_ratio != 0.0:
            raise UnsupportedKnobError(
                f"{self.name} cannot exploit structured pruning "
                f"(requested ratio {pruning_ratio})"
            )
        return workload, self.native_precision

    def _op_record(self, op: "Op", precision: Precision | None) -> "OpRecord":
        """Latency / energy of one op of a prepared workload at ``precision``."""
        raise NotImplementedError(f"{self.name} has no frame model")

    # -- capability-aware knob normalisation ----------------------------------

    def effective_precision(self, precision: Precision | None) -> Precision | None:
        """The precision the device will actually compute at.

        Devices without precision support always land on their native
        precision, which lets callers cache one simulation for every
        requested mode.
        """
        if self.supports_precision:
            return precision
        return self.native_precision

    def effective_pruning(self, pruning_ratio: float) -> float:
        """The pruning ratio that actually reaches the device's datapath."""
        _check_pruning_ratio(pruning_ratio)
        return pruning_ratio if self.supports_pruning else 0.0

    # -- content-addressable identity ------------------------------------------

    def _fingerprint_state(self) -> dict[str, Any]:
        """Model parameters that change this device's simulated behaviour.

        Subclasses override this with everything their frame estimates depend
        on (configs, specs, array geometry); the base contribution covers
        the protocol-level knobs.  Values must be JSON-canonicalizable
        (scalars, enums, dataclasses, nested containers).
        """
        return {}

    def fingerprint(self) -> str:
        """Stable content hash of the device's modelled behaviour.

        Two device instances with the same fingerprint are promised to
        produce bit-identical :class:`FrameReport` objects for identical
        workloads, which is what lets the sweep engine's report cache and
        the persistent store's result and plan keys
        (:mod:`repro.perf.store`) rely on it.  Any constructor parameter
        that alters latency / energy must feed :meth:`_fingerprint_state`
        so edits invalidate cached reports and stored entries.
        """
        return canonical_digest(
            {
                "class": type(self).__qualname__,
                "name": self.name,
                "supports_precision": self.supports_precision,
                "supports_pruning": self.supports_pruning,
                "supports_batching": self.supports_batching,
                "native_precision": self.native_precision,
                "batch_marginal_latency": self.batch_marginal_latency,
                "batch_marginal_energy": self.batch_marginal_energy,
                "state": self._fingerprint_state(),
            }
        )

    # -- serving hooks ---------------------------------------------------------

    #: Marginal latency of each extra same-scenario frame co-scheduled in one
    #: batch, as a fraction of the single-frame latency.  The default 1.0
    #: means pure serialization; devices that amortize weight fetch /
    #: encoding-table residency across a batch override this below.  (This
    #: is a serving-layer knob, independent of ``supports_batching``, which
    #: is about the *ray* batch-size sweep axis.)
    batch_marginal_latency: ClassVar[float] = 1.0
    #: Marginal energy of each extra frame in a batch (same convention).
    batch_marginal_energy: ClassVar[float] = 1.0

    def service_time_s(self, frame_latency_s: float, batch: int = 1) -> float:
        """Busy time to serve ``batch`` identical requests in one dispatch.

        The first frame pays full price; each additional co-scheduled frame
        costs ``batch_marginal_latency`` of the single-frame latency, so a
        device that keeps the default of 1.0 simply serializes.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return frame_latency_s * (1.0 + self.batch_marginal_latency * (batch - 1))

    def service_energy_j(self, frame_energy_j: float, batch: int = 1) -> float:
        """Energy to serve ``batch`` identical requests in one dispatch."""
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return frame_energy_j * (1.0 + self.batch_marginal_energy * (batch - 1))

    # -- hardware cost --------------------------------------------------------

    def area(self) -> "AreaReport":
        """Per-block area breakdown in mm^2 (Fig. 17(a))."""
        raise NotImplementedError(f"{self.name} has no area model")

    def power(self, precision: Precision | None = None) -> "PowerReport":
        """Per-block power breakdown in watts at ``precision`` (Fig. 17(b))."""
        raise NotImplementedError(f"{self.name} has no power model")

    def area_mm2(self) -> float:
        """Total of :meth:`area` in mm^2."""
        return self.area().total_mm2

    def power_w(self, precision: Precision | None = None) -> float:
        """Total of :meth:`power` in watts at ``precision``."""
        return self.power(precision).total_w

    def power_profile(self) -> dict[str, float]:
        """Labelled power figures for cost tables (Fig. 16).

        A precision-scalable device reports one figure per
        :data:`PRECISION_MODES` mode; any other device reports one figure,
        labelled with its native precision (``typical`` when it has none).
        """
        if self.supports_precision:
            return {p.name: self.power_w(p) for p in PRECISION_MODES}
        label = self.native_precision.name if self.native_precision else "typical"
        return {label: self.power_w()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# -- registry -----------------------------------------------------------------

DeviceFactory = Callable[[], Device]


def _lazy(module: str, class_name: str, spec: str | None = None) -> DeviceFactory:
    """Factory that imports ``module.class_name`` only when first called.

    ``spec`` names a constant of the same module that is passed to the
    constructor (the GPU spec sheets).
    """

    def factory() -> Device:
        namespace = importlib.import_module(module)
        device_class = getattr(namespace, class_name)
        return device_class() if spec is None else device_class(getattr(namespace, spec))

    return factory


#: Registry key -> factory for every device of the evaluation.
DEVICE_REGISTRY: dict[str, DeviceFactory] = {
    "flexnerfer": _lazy("repro.core.accelerator", "FlexNeRFer"),
    "neurex": _lazy("repro.baselines.neurex", "NeuRex"),
    "rtx-2080-ti": _lazy("repro.baselines.gpu", "GPUModel", "RTX_2080_TI"),
    "rtx-4090": _lazy("repro.baselines.gpu", "GPUModel", "RTX_4090"),
    "jetson-nano": _lazy("repro.baselines.gpu", "GPUModel", "JETSON_NANO"),
    "xavier-nx": _lazy("repro.baselines.gpu", "GPUModel", "XAVIER_NX"),
    "nvdla": _lazy("repro.baselines.nvdla", "NVDLAModel"),
    "tpu": _lazy("repro.baselines.tpu", "TPUModel"),
}


def register_device(name: str, factory: DeviceFactory, *, overwrite: bool = False) -> None:
    """Register a new device factory under ``name`` (lower-case slug)."""
    key = name.lower()
    if key in DEVICE_REGISTRY and not overwrite:
        raise ValueError(f"device '{key}' is already registered")
    DEVICE_REGISTRY[key] = factory


def device_factory(name: str) -> DeviceFactory:
    """The factory registered under ``name`` (a KeyError lists the valid names)."""
    try:
        return DEVICE_REGISTRY[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown device '{name}'; available: {sorted(DEVICE_REGISTRY)}"
        ) from exc


def get_device(name: str) -> Device:
    """Instantiate a fresh device by registry name."""
    return device_factory(name)()


@functools.cache
def _factory_fingerprint(factory: DeviceFactory) -> str:
    """Fingerprint of the device ``factory`` builds (built once per factory)."""
    return factory().fingerprint()


def device_fingerprint(name: str) -> str:
    """Fingerprint of the device registered under ``name``.

    Memoised on the registry's factory object, so ``register_device`` under
    a used name (a new factory) is seen while every other lookup stays a
    dictionary read.
    """
    return _factory_fingerprint(device_factory(name))
