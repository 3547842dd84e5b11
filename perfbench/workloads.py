"""The benchmark's workloads, each run in a fresh child process.

``run.py`` starts this file once per measured process::

    PYTHONPATH=src python3 perfbench/workloads.py WORKLOAD --seed N \\
        --store-dir DIR [--seconds S] [--traced] [--smoke]

The child imports the program, sets the workload up (for the serve
workloads: warm-up runs that fill the frame-report cache), prints
``READY``, runs timed passes and prints one ``RESULT <json>`` line.
``run-all-cold`` runs one pass (a second one would not be cold); given
``--seconds``, the serve workloads repeat passes until that long after the
child started, at least one.
Every operation -- one experiment of ``run-all-cold``, one serving sub-run
of the serve workloads -- is checked; a raise or a failed check counts it
as failed.  All timings are host time (``time.perf_counter``); simulated
statistics are outputs that get checked, never timed.

Given ``--seconds``, the child also times a fixed host-speed probe right after
``READY`` and after every operation, so that the parent can scale each
operation's host time to a reference host speed (see ``run.py``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import math
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Started before the program is imported, so ``--seconds`` covers set-up.
CHILD_START = time.perf_counter()

import numpy as np

# Imported before anything is timed: the parent measures set-up as the time
# from process start to the READY line, so these imports belong to it.
from repro.experiments import EXPERIMENTS
from repro.experiments.cli import run_many
from repro.perf.store import ResultStore
from repro.plan.space import REFERENCE_MIX
from repro.serve import (
    BatchDeadlineScheduler,
    ControlConfig,
    DegradationLadder,
    FIFOScheduler,
    FleetSimulator,
    PoissonStream,
    QueueCapAdmission,
    QueueDepthAutoscaler,
    QueueDepthShedder,
    Scheduler,
    SparsityAwareScheduler,
)
from repro.serve.control import DEFAULT_LADDER_STEPS
from repro.sim.sweep import get_default_engine

import tracing

#: Golden tables every ``run-all-cold`` result is compared with, byte for byte.
GOLDEN_DIR = Path("tests/experiments/golden")

#: Experiments of ``run-all-cold`` that serve a fleet past its capacity; their
#: host time makes up ``req_per_s.overload`` there (the rest: ``.nominal``).
OVERLOAD_EXPERIMENTS = ("serve-batch-policy", "serve-overload-sla", "serve-quality-shed")

#: The ``--smoke`` subset of ``run-all-cold``: cheap, one of them overloaded.
SMOKE_EXPERIMENTS = ("fig04", "table02", "fig12", "serve-batch-policy")

#: Per-request SLA stamped by every benchmark stream.
SLA_S = 0.25

#: Load levels, as multiples of the fleet's capacity.
NOMINAL, OVERLOAD = 0.7, 2.0

#: The default-step degradation ladder with fixed modelled qualities (the
#: traffic experiments' ``MODELED_LADDER``), rebuilt here so the benchmark's
#: inputs do not move when an experiment fixture does.
LADDER = DegradationLadder(steps=DEFAULT_LADDER_STEPS, qualities=(0.95, 0.88, 0.75, 0.60))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_kernel() -> float:
    """Fixed work that uses no program code: the host-speed probe.

    Interpreter work like the program's (a heap, a dict, float arithmetic)
    plus a small numpy loop; about 20 ms on the reference host.
    """
    rng = random.Random(7)
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(15_000):
        x = rng.random()
        heapq.heappush(heap, (x, i))
        table[i % 257] = table.get(i % 257, 0.0) + x * 1.5
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
    grid = np.linspace(0.0, 1.0, 8192)
    for _ in range(100):
        grid = np.sqrt(grid * grid + 0.5) - 0.25
    return acc + min(table.values()) + float(grid.sum())


class HostProbe:
    """Host seconds of ``probe_kernel`` around each operation.

    Each operation gets the mean of the probe before it and the probe after
    it; the probe after one operation is the probe before the next.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.first = self.last = self.time() if enabled else None

    @staticmethod
    def time() -> float:
        """One probe, with the collector off: its cost must not depend on
        how many objects the program holds."""
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe_kernel()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def step(self) -> float | None:
        """The probe time that brackets the operation that just ended."""
        if not self.enabled:
            return None
        after = self.time()
        bracket = (self.last + after) / 2
        self.last = after
        return bracket


def report_digest(report) -> str:
    """SHA-256 of a report's JSON summary (floats round-trip via ``repr``)."""
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(report, offered: int) -> str | None:
    """Why ``report`` is invalid, or None: conservation and finite tails."""
    if report.num_requests != offered:
        return f"report counts {report.num_requests} requests, {offered} offered"
    if report.completed_requests + report.rejected_requests != offered:
        return (
            f"offered {offered} != completed {report.completed_requests}"
            f" + rejected {report.rejected_requests}"
        )
    tails = (report.p50_latency_s, report.p95_latency_s, report.p99_latency_s)
    if not all(math.isfinite(t) for t in tails):
        return f"non-finite latency percentiles {tails}"
    if report.completed_requests and not tails[0] <= tails[1] <= tails[2]:
        return f"latency percentiles out of order {tails}"
    return None


class Operations:
    """Attempted / failed bookkeeping for one pass.

    An operation's record holds its ``host_s``, the requests it ``offered``
    (1 for an experiment), its ``load`` level (``nominal`` or ``overload``)
    and, when probing, the bracketing probe time ``probe_s``.
    """

    def __init__(self, probe: HostProbe) -> None:
        self.probe = probe
        self.records: list[dict] = []

    def run(self, label: str, fn: Callable[[], dict]) -> dict:
        """Run one operation; a raise is recorded as its failure."""
        try:
            record = fn()
        except Exception:  # an operation's failure must not end the pass
            record = {"error": traceback.format_exc(limit=4)}
        record["probe_s"] = self.probe.step()
        record["label"] = label
        record.setdefault("error", None)
        self.records.append(record)
        return record


# -- run-all-cold -------------------------------------------------------------


class RunAllCold:
    """Every registered experiment, in registry order, on an empty store."""

    #: A second pass in the same process would replay from warm caches.
    repeatable = False

    def __init__(self, seed: int, smoke: bool, store_dir: Path) -> None:
        # The experiments' inputs are their pinned defaults (the golden
        # tables depend on them), so the seed selects nothing here.
        self.store_dir = store_dir
        self.experiments = [
            exp for key, exp in EXPERIMENTS.items() if not smoke or key in SMOKE_EXPERIMENTS
        ]

    def setup(self) -> None:
        """Attach a fresh, empty result store, as on a first ``repro run all``."""
        if self.store_dir.exists() and any(self.store_dir.iterdir()):
            raise RuntimeError(f"store directory {self.store_dir} is not empty")
        get_default_engine().attach_store(ResultStore(self.store_dir))

    def run_pass(self, probe: HostProbe) -> list[dict]:
        """``repro run all --jobs 1``, one experiment at a time, then checks."""
        ops = Operations(probe)
        results = {}
        for exp in self.experiments:

            def one() -> dict:
                t0 = time.perf_counter()
                result = run_many([exp])[0]
                return {
                    "result": result,
                    "host_s": time.perf_counter() - t0,
                    "offered": 1,
                    "load": "overload" if exp.id in OVERLOAD_EXPERIMENTS else "nominal",
                }

            results[exp.id] = ops.run(exp.id, one)
        for key, record in results.items():
            result = record.pop("result", None)
            if result is None:
                continue
            golden = GOLDEN_DIR / f"{key}.txt"
            try:
                same = result.to_table() == golden.read_text().rstrip("\n")
            except Exception:  # a broken renderer fails its experiment only
                record["error"] = traceback.format_exc(limit=4)
                continue
            if not same:
                record["error"] = f"{key}: table differs from {golden}"
        return ops.records


# -- serve workloads ----------------------------------------------------------


@dataclass(frozen=True)
class SubRun:
    """One serving sub-run: a policy at a load level of the workload's fleet.

    Schedulers and control configs keep no state across runs (the simulator
    builds per-run state), so one instance serves every pass.
    """

    label: str
    load: float
    scheduler: Scheduler
    control: ControlConfig | None = None


class ServeWorkload:
    """Open-loop Poisson traffic on the reference mix against one fleet.

    Each sub-run offers ``requests`` requests on average (the Poisson draw
    decides the exact count) at ``load`` times the fleet's capacity.  The
    capacities are pinned: they were derived from the frame model's
    mix-weighted service times on this fleet, and pinning them keeps the
    inputs identical when the model changes.
    """

    repeatable = True
    fleet: tuple[str, ...] = ()
    capacity_rps: float = 0.0
    requests: int = 0
    smoke_requests: int = 0
    warmup_requests: int = 200
    subruns: tuple[SubRun, ...] = ()

    def __init__(self, seed: int, smoke: bool, store_dir: Path) -> None:
        self.seed = seed
        self.size = self.smoke_requests if smoke else self.requests

    def stream(self, sub: SubRun, size: int) -> PoissonStream:
        """The sub-run's arrival process, sized to ``size`` expected requests."""
        rate = self.capacity_rps * sub.load
        return PoissonStream(rate, size / rate, REFERENCE_MIX, sla_s=SLA_S)

    def setup(self) -> None:
        """Fill the frame-report cache so the timed pass renders nothing.

        Every (mix scenario, ladder level) pair is estimated on every device
        of the fleet, then each sub-run is simulated once at a small size.
        """
        engine = get_default_engine()
        sheds = any(sub.control is not None and sub.control.shedder is not None for sub in self.subruns)
        for scenario in REFERENCE_MIX.scenarios:
            for level in range(LADDER.depth + 1 if sheds else 1):
                served = LADDER.apply(scenario, level) if level else scenario
                for device in sorted(set(self.fleet)):
                    engine.frame_report(
                        device,
                        served.model,
                        config=served.frame_config(),
                        precision=served.precision,
                        pruning_ratio=served.pruning_ratio,
                    )
        for sub in self.subruns:
            requests = self.stream(sub, self.warmup_requests).generate(self.seed)
            self.simulator(sub).run(requests)

    def simulator(self, sub: SubRun) -> FleetSimulator:
        return FleetSimulator(self.fleet, scheduler=sub.scheduler, control=sub.control)

    def run_pass(self, probe: HostProbe) -> list[dict]:
        """Generate, simulate and aggregate every sub-run once, then check it."""
        ops = Operations(probe)
        engine = get_default_engine()
        for sub in self.subruns:
            stream = self.stream(sub, self.size)
            simulator = self.simulator(sub)

            def one() -> dict:
                renders = engine.stats.render_calls
                t0 = time.perf_counter()
                requests = stream.generate(self.seed)
                report = simulator.run(requests)
                host_s = time.perf_counter() - t0
                offered = len(requests)
                error = check_report(report, offered)
                if error is None and engine.stats.render_calls != renders:
                    error = "timed sub-run rendered frames (warm-up missed a report)"
                return {
                    "host_s": host_s,
                    "offered": offered,
                    "load": "overload" if sub.load == OVERLOAD else "nominal",
                    "digest": report_digest(report),
                    "error": error,
                }

            ops.run(sub.label, one)
        return ops.records


#: Admission caps the 80-worker backlog at 8 queued requests per worker;
#: shedding climbs one ladder rung per 4 queued requests per worker below
#: that, so at 2x load the fast path both rejects and sheds.
CAP_AND_SHED = ControlConfig(
    admission=QueueCapAdmission(max_queue=640), shedder=QueueDepthShedder(LADDER)
)


class ServeFastPath(ServeWorkload):
    """80 workers, plain FIFO with and without admission + shedding."""

    fleet = ("flexnerfer",) * 40 + ("neurex",) * 40
    capacity_rps = 1627.16
    requests = 50_000
    smoke_requests = 2_000
    subruns = tuple(
        SubRun(f"{name}@{load}x", load, FIFOScheduler(), control)
        for load in (NOMINAL, OVERLOAD)
        for name, control in (("fifo", None), ("fifo+cap+shed", CAP_AND_SHED))
    )


class ServeEventLoop(ServeWorkload):
    """2 workers, the schedulers and control that take the event loop."""

    fleet = ("flexnerfer", "neurex")
    capacity_rps = 40.68
    requests = 5_000
    smoke_requests = 200
    warmup_requests = 100
    subruns = tuple(
        SubRun(f"{name}@{load}x", load, scheduler, control)
        for load in (NOMINAL, OVERLOAD)
        for name, scheduler, control in (
            ("sparsity-aware", SparsityAwareScheduler(), None),
            ("batch-deadline", BatchDeadlineScheduler(8, 0.05), None),
            (
                "fifo+autoscale",
                FIFOScheduler(),
                ControlConfig(
                    autoscaler=QueueDepthAutoscaler(scale_out_depth=4, min_workers=1, max_workers=2)
                ),
            ),
        )
    )


WORKLOADS = {
    "run-all-cold": RunAllCold,
    "serve-fast-path": ServeFastPath,
    "serve-event-loop": ServeEventLoop,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store-dir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, help="probe the host; repeat passes until then")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.store_dir)
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    before = tracing.engine_counts(get_default_engine())
    region_start = time.perf_counter()
    workload.setup()
    print("READY", flush=True)
    ready = time.perf_counter()
    probe = HostProbe(args.seconds is not None)
    passes = [workload.run_pass(probe)]
    region_s = time.perf_counter() - region_start
    result = {"setup_probe_s": probe.first, "region_s": region_s}
    if tracer is not None:
        after = tracing.engine_counts(get_default_engine())
        result["layers"] = tracing.layer_metrics(tracer, region_s, before, after)
    while workload.repeatable and args.seconds is not None:
        now = time.perf_counter()
        if now - CHILD_START + (now - ready) / len(passes) > args.seconds:
            break
        passes.append(workload.run_pass(probe))
    result["passes"] = passes
    result["peak_rss_mb"] = peak_rss_mb()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
