"""Declarative capacity-plan spaces: candidate fleets and their traffic.

A :class:`PlanSpace` describes every fleet configuration the planner should
consider -- device mixes drawn from :data:`~repro.core.device.DEVICE_REGISTRY`,
worker counts, scheduling policies and overload-control variants -- together
with the :class:`TrafficSpec` every candidate is judged against.  Enumeration
is fully deterministic (declared tuple order, no set/dict iteration), and
each candidate maps to a content-addressed
:class:`~repro.perf.store.PlanPointKey`, so evaluated points are cached in
the result store like every other tier's entries.

``docs/planning.md`` documents the model; ``repro plan`` is the CLI surface.
"""

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

from repro.core.device import DEVICE_REGISTRY, canonical_digest, device_fingerprint
from repro.serve.request import (
    PoissonStream,
    Request,
    Scenario,
    ScenarioMix,
)
from repro.sparse.formats import Precision
from repro.validate import require_count, require_positive

#: Scheduler policies a plan space may reference, in the registry order the
#: ``repro run`` serving experiments use.  Names resolve to constructors in
#: ``repro.plan.evaluate``.
SCHEDULER_NAMES = ("fifo", "sparsity-aware", "batch-deadline")

#: Overload-control variants a plan space may reference.  ``"none"`` runs
#: the bare fleet; the other variants attach a
#: :class:`~repro.serve.control.ControlConfig` with pinned constants
#: (see ``repro.plan.evaluate``), kept autoscaler-free so plain-FIFO
#: candidates stay on the fleet simulator's fast path.
CONTROL_NAMES = ("none", "queue-cap", "token-bucket")

#: The small three-scenario mix the built-in ``tiny`` spec serves: the
#: reference scenario blend at 96x96 so one candidate costs a handful of
#: cheap frame simulations.  Weighted 2:1:1 like the serving studies' mix.
TINY_MIX = ScenarioMix(
    scenarios=(
        Scenario(model="instant-ngp", scene="lego", width=96, height=96),
        Scenario(
            model="instant-ngp",
            scene="mic",
            width=96,
            height=96,
            precision=Precision.INT8,
            pruning_ratio=0.5,
        ),
        Scenario(model="tensorf", scene="lego", width=96, height=96),
    ),
    weights=(2.0, 1.0, 1.0),
)

#: The serving studies' reference blend at full 400x400 resolution.
REFERENCE_MIX = ScenarioMix(
    scenarios=(
        Scenario(model="instant-ngp", scene="lego", width=400, height=400),
        Scenario(
            model="instant-ngp",
            scene="mic",
            width=400,
            height=400,
            precision=Precision.INT8,
            pruning_ratio=0.5,
        ),
        Scenario(model="tensorf", scene="lego", width=400, height=400),
    ),
    weights=(2.0, 1.0, 1.0),
)

#: Scenario mixes a JSON plan spec may reference by name.
PLAN_MIXES = {"tiny": TINY_MIX, "reference": REFERENCE_MIX}

#: Traffic shapes a plan space may search over.  Every shape realizes the
#: same :class:`TrafficSpec` demand envelope (rate, duration, mix, SLA)
#: through a different arrival process from the scenario library:
#: ``"poisson"`` is the memoryless baseline, ``"flash-crowd"`` spends the
#: same mean rate with seeded 3x burst epochs, and ``"marked-burst"``
#: is the self-exciting process whose long-run mean matches ``rate_rps``.
TRAFFIC_SHAPES = ("poisson", "flash-crowd", "marked-burst")


@dataclass(frozen=True)
class TrafficSpec:
    """The target workload every candidate fleet is evaluated against.

    One seeded Poisson arrival process over a scenario mix, with a single
    SLA budget stamped on every request -- the planner's unit of demand.
    """

    mix: ScenarioMix
    rate_rps: float
    duration_s: float
    sla_ms: float
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate rate, duration, SLA budget and seed."""
        require_positive("traffic rate_rps", self.rate_rps)
        require_positive("traffic duration_s", self.duration_s)
        require_positive("traffic sla_ms", self.sla_ms)
        require_count("seed", self.seed, 0)

    @property
    def sla_s(self) -> float:
        """The SLA budget in seconds."""
        return self.sla_ms / 1000.0

    def requests(self, shape: str = "poisson") -> tuple[Request, ...]:
        """The deterministic request stream candidates under ``shape`` replay.

        Every shape in :data:`TRAFFIC_SHAPES` spends the same demand
        envelope -- ``rate_rps`` mean arrivals over ``duration_s`` with
        ``sla_ms`` deadlines on ``mix`` -- through a different arrival
        process, with pinned shape constants so the realization is a pure
        function of (spec, shape, seed).
        """
        from repro.serve.traffic import FlashCrowdStream, MarkedBurstStream

        if shape == "poisson":
            stream: "PoissonStream | FlashCrowdStream | MarkedBurstStream" = (
                PoissonStream(
                    rate_rps=self.rate_rps,
                    duration_s=self.duration_s,
                    mix=self.mix,
                    sla_s=self.sla_s,
                )
            )
        elif shape == "flash-crowd":
            stream = FlashCrowdStream(
                base_rps=self.rate_rps,
                burst_rps=3.0 * self.rate_rps,
                duration_s=self.duration_s,
                mix=self.mix,
                num_bursts=1,
                burst_s=self.duration_s / 5.0,
                sla_s=self.sla_s,
            )
        elif shape == "marked-burst":
            # Immigrants at 60% of the target rate with a 0.4 branching
            # ratio keep the long-run mean at rate_rps: mu / (1 - eta).
            stream = MarkedBurstStream(
                immigrant_rps=0.6 * self.rate_rps,
                duration_s=self.duration_s,
                mix=self.mix,
                offspring_mean=0.4,
                decay_s=self.duration_s / 10.0,
                sla_s=self.sla_s,
            )
        else:
            raise ValueError(
                f"unknown traffic shape '{shape}'; available: {list(TRAFFIC_SHAPES)}"
            )
        return stream.generate(seed=self.seed)


@dataclass(frozen=True)
class PlanPoint:
    """One candidate fleet configuration of a plan space.

    ``traffic`` names the :data:`TRAFFIC_SHAPES` arrival process this
    candidate is judged against (single-shape spaces leave the default).
    """

    fleet: tuple[str, ...]
    scheduler: str
    control: str
    traffic: str = "poisson"

    @property
    def label(self) -> str:
        """Compact fleet identity, e.g. ``flexnerfer+neurex``."""
        return "+".join(self.fleet)

    @property
    def digest(self) -> str:
        """SHA-1 content address of the candidate itself."""
        return canonical_digest(
            (self.fleet, self.scheduler, self.control, self.traffic)
        )


@dataclass(frozen=True)
class PlanSpace:
    """A declarative fleet design space plus the traffic it must hold.

    ``devices`` x ``worker_counts`` generate heterogeneous fleet mixes
    (order-insensitive combinations with replacement), crossed with the
    scheduler and control variants.  Validation happens at construction so
    the CLI can reject a bad spec with one early error.
    """

    name: str
    devices: tuple[str, ...]
    worker_counts: tuple[int, ...]
    traffic: TrafficSpec
    schedulers: tuple[str, ...] = ("fifo",)
    controls: tuple[str, ...] = ("none",)
    traffic_shapes: tuple[str, ...] = ("poisson",)

    def __post_init__(self) -> None:
        """Validate devices, worker counts and policy names."""
        if not self.devices:
            raise ValueError("a plan space needs at least one device")
        for device in self.devices:
            if device not in DEVICE_REGISTRY:
                raise ValueError(
                    f"unknown device '{device}'; "
                    f"available: {sorted(DEVICE_REGISTRY)}"
                )
        if len(set(self.devices)) != len(self.devices):
            raise ValueError(f"duplicate devices in plan space: {self.devices}")
        if not self.worker_counts:
            raise ValueError("a plan space needs at least one worker count")
        for count in self.worker_counts:
            require_count("worker counts", count, 1)
        if len(set(self.worker_counts)) != len(self.worker_counts):
            raise ValueError(
                f"duplicate worker counts in plan space: {self.worker_counts}"
            )
        if not self.schedulers:
            raise ValueError("a plan space needs at least one scheduler")
        for scheduler in self.schedulers:
            if scheduler not in SCHEDULER_NAMES:
                raise ValueError(
                    f"unknown scheduler '{scheduler}'; "
                    f"available: {list(SCHEDULER_NAMES)}"
                )
        if not self.controls:
            raise ValueError("a plan space needs at least one control variant")
        for control in self.controls:
            if control not in CONTROL_NAMES:
                raise ValueError(
                    f"unknown control variant '{control}'; "
                    f"available: {list(CONTROL_NAMES)}"
                )
        if not self.traffic_shapes:
            raise ValueError("a plan space needs at least one traffic shape")
        for shape in self.traffic_shapes:
            if shape not in TRAFFIC_SHAPES:
                raise ValueError(
                    f"unknown traffic shape '{shape}'; "
                    f"available: {list(TRAFFIC_SHAPES)}"
                )
        if len(set(self.traffic_shapes)) != len(self.traffic_shapes):
            raise ValueError(
                f"duplicate traffic shapes in plan space: {self.traffic_shapes}"
            )

    def enumerate_points(self) -> tuple[PlanPoint, ...]:
        """Every candidate, in a deterministic declared-order enumeration.

        Worker counts, fleets (``itertools.combinations_with_replacement``
        over the declared device order), schedulers and controls nest in
        that order, so repeat calls -- on any machine -- enumerate the
        identical sequence, and a warm re-run finds every point's store
        entry.
        """
        points = []
        for count in self.worker_counts:
            for fleet in itertools.combinations_with_replacement(
                self.devices, count
            ):
                for scheduler in self.schedulers:
                    for control in self.controls:
                        for shape in self.traffic_shapes:
                            points.append(
                                PlanPoint(
                                    fleet=fleet,
                                    scheduler=scheduler,
                                    control=control,
                                    traffic=shape,
                                )
                            )
        return tuple(points)

    def canonical(self) -> dict:
        """JSON-safe description of the space (CLI/provenance output)."""
        return {
            "name": self.name,
            "devices": list(self.devices),
            "worker_counts": list(self.worker_counts),
            "schedulers": list(self.schedulers),
            "controls": list(self.controls),
            "traffic_shapes": list(self.traffic_shapes),
            "traffic": {
                "rate_rps": self.traffic.rate_rps,
                "duration_s": self.traffic.duration_s,
                "sla_ms": self.traffic.sla_ms,
                "seed": self.traffic.seed,
                "scenarios": [s.label for s in self.traffic.mix.scenarios],
                "weights": list(self.traffic.mix.weights or ()),
            },
        }


def space_digest(space: PlanSpace, cost_model: dict | None = None) -> str:
    """Content digest of everything a point's evaluation depends on.

    Hashes the space's search axes, the fingerprint of each of its
    devices (a device registered at runtime lives outside the package
    source the store's code digest covers), the traffic spec (the ``name``
    is display-only and excluded, so renaming a spec keeps its cache warm)
    and the cost-model constants.
    """
    from repro.plan.evaluate import COST_MODEL

    constants = cost_model if cost_model is not None else COST_MODEL
    return canonical_digest(
        (
            space.devices,
            tuple(device_fingerprint(device) for device in space.devices),
            space.worker_counts,
            space.schedulers,
            space.controls,
            space.traffic_shapes,
            space.traffic,
            tuple(sorted(constants.items())),
        )
    )


#: Built-in named plan spaces ``repro plan <spec>`` resolves first.
PLAN_SPECS = {
    "tiny": PlanSpace(
        name="tiny",
        devices=("flexnerfer", "neurex"),
        worker_counts=(1, 2),
        traffic=TrafficSpec(
            mix=TINY_MIX, rate_rps=60.0, duration_s=1.5, sla_ms=120.0, seed=0
        ),
    ),
    "reference": PlanSpace(
        name="reference",
        devices=("flexnerfer", "neurex", "rtx-4090"),
        worker_counts=(1, 2),
        traffic=TrafficSpec(
            mix=REFERENCE_MIX, rate_rps=80.0, duration_s=4.0, sla_ms=250.0, seed=0
        ),
        schedulers=("fifo", "sparsity-aware"),
        controls=("none", "queue-cap"),
    ),
}


def space_from_dict(data: dict, name: str = "custom") -> PlanSpace:
    """Build a validated :class:`PlanSpace` from a JSON-style mapping.

    Expected shape (see ``docs/planning.md``)::

        {"devices": [...], "worker_counts": [...],
         "schedulers": [...], "controls": [...],
         "traffic_shapes": ["poisson", "flash-crowd", "marked-burst"],
         "traffic": {"rate_rps": ..., "duration_s": ..., "sla_ms": ...,
                     "seed": ..., "mix": "tiny" | "reference"}}

    ``schedulers`` / ``controls`` / ``traffic_shapes`` / ``seed`` / ``mix``
    are optional (``traffic_shapes`` defaults to the Poisson baseline
    alone); anything malformed raises ``ValueError`` with a one-line
    reason.
    """
    if not isinstance(data, dict):
        raise ValueError(f"plan spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {
        "name", "devices", "worker_counts", "schedulers", "controls",
        "traffic", "traffic_shapes",
    }
    if unknown:
        raise ValueError(f"unknown plan spec keys: {sorted(unknown)}")
    traffic_data = data.get("traffic")
    if not isinstance(traffic_data, dict):
        raise ValueError("plan spec needs a 'traffic' object")
    unknown = set(traffic_data) - {"rate_rps", "duration_s", "sla_ms", "seed", "mix"}
    if unknown:
        raise ValueError(f"unknown traffic keys: {sorted(unknown)}")
    mix_name = traffic_data.get("mix", "tiny")
    if mix_name not in PLAN_MIXES:
        raise ValueError(
            f"unknown traffic mix '{mix_name}'; available: {sorted(PLAN_MIXES)}"
        )
    try:
        traffic = TrafficSpec(
            mix=PLAN_MIXES[mix_name],
            rate_rps=float(traffic_data["rate_rps"]),
            duration_s=float(traffic_data["duration_s"]),
            sla_ms=float(traffic_data["sla_ms"]),
            seed=traffic_data.get("seed", 0),
        )
        return PlanSpace(
            name=str(data.get("name", name)),
            devices=tuple(str(d) for d in data.get("devices", ())),
            worker_counts=tuple(data.get("worker_counts", ())),
            traffic=traffic,
            schedulers=tuple(str(s) for s in data.get("schedulers", ("fifo",))),
            controls=tuple(str(c) for c in data.get("controls", ("none",))),
            traffic_shapes=tuple(
                str(t) for t in data.get("traffic_shapes", ("poisson",))
            ),
        )
    except KeyError as exc:
        raise ValueError(f"plan spec is missing {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed plan spec: {exc}") from exc


def load_space(source: str) -> PlanSpace:
    """Resolve ``source`` to a plan space: built-in name first, then JSON file.

    ``source`` is either a key of :data:`PLAN_SPECS` (``"tiny"``,
    ``"reference"``) or the path of a JSON spec file in the
    :func:`space_from_dict` shape.  Raises ``ValueError`` when it is
    neither.
    """
    if source in PLAN_SPECS:
        return PLAN_SPECS[source]
    path = Path(source)
    if path.is_file():
        try:
            data = json.loads(path.read_text())
        except ValueError as exc:
            raise ValueError(f"invalid JSON in plan spec {source}: {exc}") from exc
        return space_from_dict(data, name=path.stem)
    raise ValueError(
        f"unknown plan spec '{source}' "
        f"(not a built-in name {sorted(PLAN_SPECS)} or a JSON file)"
    )
