"""In-memory span recorder wrapped around the program's layer boundaries.

The benchmark traces from the outside: :func:`install` replaces public
methods and functions of the ``repro`` package with wrappers that open a
span on entry and close it on exit.  Spans live in compact in-memory
arrays (layer id, parent span, start, end) and are reduced once, at the end
of the run, by :meth:`Tracer.layers`.

A layer's self time is the duration of its spans minus the time their
direct child spans cover.  A span nested directly inside a span of the same
layer (``render`` calling ``render_prepared``, ``from_completions`` calling
``from_arrays``) counts toward that layer's time but not as another call.

Only traced child processes call :func:`install`; untraced passes run the
program unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Any, Callable

#: A hook run after a wrapped call: ``(tracer, args, kwargs, result, before)``
#: where ``before`` is what the optional pre-hook returned.
PostHook = Callable[["Tracer", tuple, dict, Any, Any], None]
PreHook = Callable[[tuple, dict], Any]


class Tracer:
    """Records nested spans and named counters for one traced region."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counters: dict[str, float] = {}

    def begin(self, name: str) -> int:
        """Open a span of layer ``name`` under the innermost open span."""
        layer = self._ids.get(name)
        if layer is None:
            layer = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        """Close span ``index`` (always the innermost open one)."""
        self.end[index] = time.perf_counter()
        self._open.pop()

    def inside(self, name: str) -> bool:
        """Whether the innermost open span belongs to layer ``name``."""
        return bool(self._open) and self.names[self.layer[self._open[-1]]] == name

    def add(self, counter: str, value: float = 1) -> None:
        """Add ``value`` to a named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + value

    @property
    def spans(self) -> int:
        """Number of spans recorded so far."""
        return len(self.layer)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer ``calls`` and ``self_s`` over every closed span."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        n = len(self.layer)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_s[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.layer[i]]]
            entry["self_s"] += self.end[i] - self.start[i] - child_s[i]
            p = self.parent[i]
            if p < 0 or self.layer[p] != self.layer[i]:
                entry["calls"] += 1
        return out


def _wrap(
    tracer: Tracer,
    fn: Callable,
    layer: str,
    pre: PreHook | None = None,
    post: PostHook | None = None,
) -> Callable:
    """``fn`` inside a span of ``layer``, with optional counter hooks."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Counters follow the call-count rule: a re-entrant span of the
        # same layer is part of the outer call, so only the outer one counts.
        counted = not tracer.inside(layer)
        before = pre(args, kwargs) if pre is not None and counted else None
        span = tracer.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(span)
        if post is not None and counted:
            post(tracer, args, kwargs, result, before)
        return result

    return traced


def _subclasses(base: type) -> list[type]:
    """``base`` and every (transitively) derived class currently loaded."""
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def patch_method(
    tracer: Tracer,
    base: type,
    name: str,
    layer: str,
    pre: PreHook | None = None,
    post: PostHook | None = None,
) -> None:
    """Wrap ``name`` on ``base`` and on every subclass that defines its own.

    Abstract declarations are skipped (the concrete overrides are what
    runs); classmethods keep their binding.  Finding nothing to wrap is an
    error, so a renamed method cannot silently drop out of the trace.
    """
    patched = 0
    for cls in _subclasses(base):
        raw = cls.__dict__.get(name)
        if raw is None or getattr(raw, "__isabstractmethod__", False):
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, raw.__func__, layer, pre, post))
        elif callable(raw):
            wrapped = _wrap(tracer, raw, layer, pre, post)
        else:
            continue
        setattr(cls, name, wrapped)
        patched += 1
    if not patched:
        raise AttributeError(f"{base.__qualname__}.{name} not found to trace")


def patch_function(
    tracer: Tracer,
    module: Any,
    name: str,
    layer: str,
) -> None:
    """Wrap a module-level function everywhere a ``repro`` module binds it.

    ``from x import f`` copies the binding, so every loaded ``repro.*``
    module whose namespace holds the original function object is rebound.
    """
    original = getattr(module, name)
    wrapped = _wrap(tracer, original, layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapped


# -- counter hooks ------------------------------------------------------------


def _count_points(tracer, args, kwargs, result, before) -> None:
    points = args[1] if len(args) > 1 else kwargs["points"]
    shape = getattr(points, "shape", None)
    count = 1
    for dim in (shape[:-1] if shape is not None else (len(points),)):
        count *= dim
    tracer.add("nerf.scene_query.points", count)


def _count_requests(tracer, args, kwargs, result, before) -> None:
    tracer.add("serve.generate.requests", len(result))


def _count_store_hit(tracer, args, kwargs, result, before) -> None:
    if result is not None:
        tracer.add("perf.store.get.hits")


def _queue_len(args, kwargs) -> int:
    queue = args[2] if len(args) > 2 else kwargs["queue"]
    return len(queue)


def _count_assign(tracer, args, kwargs, result, before) -> None:
    dispatches, _ = result
    tracer.add("serve.scheduler.assign.queue_len_sum", before)
    tracer.add("serve.scheduler.dispatches", len(dispatches))
    if dispatches:
        tracer.add("serve.scheduler.assign.useful")


def _count_report(tracer, args, kwargs, result, before) -> None:
    tracer.add("sim.runs", 1)
    tracer.add("sim.offered", result.num_requests)
    tracer.add("sim.completed", result.completed_requests)
    tracer.add("sim.rejected", result.rejected_requests)
    tracer.add("sim.shed", result.shed_requests)
    tracer.add("sim.wait_sum_s", result.mean_wait_s * result.completed_requests)
    tracer.add("sim.utilization_sum", result.mean_utilization)


#: Traced layers in report order, with the extra counters each reports.
LAYERS = (
    "experiments.run",
    "plan.evaluate_point",
    "plan.frontier",
    "nerf.scene_fit",
    "nerf.scene_query",
    "nerf.render",
    "nerf.workload_build",
    "core.render_frame",
    "sim.sweep.frame_report",
    "sim.sweep.workload",
    "perf.store.get",
    "perf.store.put",
    "serve.generate",
    "serve.fleet.run",
    "serve.fleet.estimate",
    "serve.scheduler.assign",
    "serve.report.aggregate",
)


def engine_counts(engine) -> dict[str, int]:
    """The sweep engine's cache counters, to difference across a region."""
    stats = engine.stats
    return {
        "workload_hits": stats.workload_hits,
        "workload_misses": stats.workload_misses,
        "report_hits": stats.report_hits,
        "report_misses": stats.report_misses,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    before: dict[str, int],
    after: dict[str, int],
) -> dict[str, list]:
    """Every per-layer metric of one traced region, as ``name: [value, unit]``.

    ``<layer>.self_s`` over all layers plus ``other.self_s`` (time inside
    the region but outside every traced span) add up to ``trace.wall_s``.
    """
    layers = tracer.layers()
    counters = tracer.counters
    metrics: dict[str, list] = {}
    traced_s = 0.0
    for layer in LAYERS:
        entry = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = [entry["calls"], "count"]
        metrics[f"{layer}.self_s"] = [entry["self_s"], "s"]
        traced_s += entry["self_s"]
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise KeyError(f"spans of unlisted layers: {sorted(unknown)}")
    delta = {key: after[key] - before[key] for key in after}
    assign_calls = metrics["serve.scheduler.assign.calls"][0]
    offered = counters.get("sim.offered", 0)
    metrics.update(
        {
            "nerf.scene_query.points": [counters.get("nerf.scene_query.points", 0), "count"],
            "serve.generate.requests": [counters.get("serve.generate.requests", 0), "count"],
            "perf.store.get.hit_ratio": [
                _ratio(counters.get("perf.store.get.hits", 0), metrics["perf.store.get.calls"][0]),
                "ratio",
            ],
            "sim.sweep.report_hit_ratio": [
                _ratio(delta["report_hits"], delta["report_hits"] + delta["report_misses"]),
                "ratio",
            ],
            "sim.sweep.workload_hit_ratio": [
                _ratio(delta["workload_hits"], delta["workload_hits"] + delta["workload_misses"]),
                "ratio",
            ],
            "serve.scheduler.assign.useful_ratio": [
                _ratio(counters.get("serve.scheduler.assign.useful", 0), assign_calls),
                "ratio",
            ],
            "serve.scheduler.assign.queue_len_mean": [
                _ratio(counters.get("serve.scheduler.assign.queue_len_sum", 0), assign_calls),
                "requests",
            ],
            "serve.scheduler.dispatches": [counters.get("serve.scheduler.dispatches", 0), "count"],
            "serve.fleet.sim_mean_wait_s": [
                _ratio(counters.get("sim.wait_sum_s", 0.0), counters.get("sim.completed", 0)),
                "sim_s",
            ],
            "serve.fleet.sim_utilization": [
                _ratio(counters.get("sim.utilization_sum", 0.0), counters.get("sim.runs", 0)),
                "ratio",
            ],
            "serve.control.rejected_ratio": [_ratio(counters.get("sim.rejected", 0), offered), "ratio"],
            "serve.control.shed_ratio": [_ratio(counters.get("sim.shed", 0), offered), "ratio"],
            "other.self_s": [wall_s - traced_s, "s"],
            "trace.wall_s": [wall_s, "s"],
            "trace.spans": [tracer.spans, "count"],
        }
    )
    return metrics


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the loaded ``repro`` package."""
    import repro.experiments  # noqa: F401 - registers (imports) every experiment
    import repro.plan.evaluate
    import repro.plan.pareto
    import repro.serve  # noqa: F401 - loads the traffic stream subclasses
    from repro.core.device import Device
    from repro.experiments.api import Experiment
    from repro.nerf.models.base import NeRFModel
    from repro.nerf.renderer import InstantNGPRenderer
    from repro.nerf.scenes import SyntheticScene
    from repro.perf.store import ResultStore
    from repro.serve.fleet import FleetSimulator
    from repro.serve.report import ServingReport
    from repro.serve.request import RequestStream
    from repro.serve.scheduler import Scheduler
    from repro.sim.sweep import SweepEngine

    patch_method(tracer, Experiment, "run", "experiments.run")
    patch_method(tracer, InstantNGPRenderer, "fit_to_scene", "nerf.scene_fit")
    for name in ("render", "prepare_render", "render_prepared"):
        patch_method(tracer, InstantNGPRenderer, name, "nerf.render")
    for name in ("fields", "density", "color"):
        patch_method(
            tracer, SyntheticScene, name, "nerf.scene_query", post=_count_points
        )
    patch_method(tracer, NeRFModel, "build_workload", "nerf.workload_build")
    patch_method(tracer, Device, "render_frame", "core.render_frame")
    patch_method(tracer, SweepEngine, "frame_report", "sim.sweep.frame_report")
    patch_method(tracer, SweepEngine, "workload", "sim.sweep.workload")
    for name in ("get", "get_asset", "get_result", "get_plan"):
        patch_method(
            tracer, ResultStore, name, "perf.store.get", post=_count_store_hit
        )
    for name in ("put", "put_asset", "put_result", "put_plan"):
        patch_method(tracer, ResultStore, name, "perf.store.put")
    patch_method(
        tracer, RequestStream, "generate", "serve.generate", post=_count_requests
    )
    patch_method(tracer, FleetSimulator, "run", "serve.fleet.run", post=_count_report)
    patch_method(tracer, FleetSimulator, "estimate", "serve.fleet.estimate")
    patch_method(
        tracer,
        Scheduler,
        "assign",
        "serve.scheduler.assign",
        pre=_queue_len,
        post=_count_assign,
    )
    for name in ("from_arrays", "from_completions"):
        patch_method(tracer, ServingReport, name, "serve.report.aggregate")
    patch_function(tracer, repro.plan.evaluate, "evaluate_point", "plan.evaluate_point")
    for name in ("pareto_frontier", "cheapest_feasible"):
        patch_function(tracer, repro.plan.pareto, name, "plan.frontier")
