"""DET002: wall-clock reads outside the measurement / provenance layer."""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.base import Finding, ModuleRule, SourceModule

#: Canonical callee names that read the wall clock (or a monotonic clock --
#: equally non-reproducible as a *result* input).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(ModuleRule):
    """Flag wall-clock reads anywhere but ``repro.perf``.

    A timestamp that reaches a simulated result, a rendered table or a
    store-key digest makes every run unique: warm replays stop being
    byte-identical to the cold run.  Only the measurement harness
    (``repro.perf`` -- bench timings, store entry timestamps) legitimately
    reads clocks; provenance wall-time capture elsewhere carries an inline
    ``lint-ignore`` with its justification.
    """

    id = "DET002"
    title = "wall-clock read outside repro.perf"
    rationale = (
        "Clock reads feeding results, tables or digests make every run "
        "unique, breaking byte-identical warm replays.  Measure time only "
        "in repro.perf, or suppress with a justified inline pragma where "
        "wall time *is* the datum."
    )
    exempt: ClassVar[tuple[str, ...]] = ("repro.perf",)

    def check_module(self, module: SourceModule) -> Iterator[Finding]:
        """Flag every wall-clock call in ``module``."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.call_name(node)
            if name in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"'{name}' reads the clock outside repro.perf; results "
                    f"must not depend on when they were computed",
                )
