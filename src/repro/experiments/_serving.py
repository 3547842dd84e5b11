"""Shared fixtures and the one row shape of the serving experiments (`serve-*`).

The serving studies share one reference scenario mix so their numbers are
comparable: :data:`repro.plan.space.REFERENCE_MIX`, a mostly-Instant-NGP
request population at 400x400 with a dense TensoRF tail and one pruned
low-precision scenario -- the kind of request FlexNeRFer's sparsity-aware
datapath serves disproportionately faster, which is what makes
heterogeneous routing interesting.  This module holds the rest: the
modelled degradation ladder, the fleet-spec parser and the one row shape.
A study declares its variants as data and its :class:`Metric` tuple;
:func:`serve_rows` serves each variant and reads its report into a plain
dict row, so each unit conversion is written once, in :data:`METRICS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.experiments.api import Column
from repro.serve.control import DEFAULT_LADDER_STEPS, ControlConfig, DegradationLadder
from repro.serve.fleet import FleetSimulator
from repro.serve.report import ServingReport
from repro.serve.request import Request
from repro.serve.scheduler import Scheduler
from repro.sim.sweep import SweepEngine

#: Default-step ladder with *modelled* (fixed) qualities rather than
#: PSNR-measured ones.  The traffic experiments use it so their goldens
#: depend only on the serving simulation, not on the probe renderer;
#: `serve-overload-sla` keeps the measured :func:`price_ladder` variant.
MODELED_LADDER = DegradationLadder(
    steps=DEFAULT_LADDER_STEPS,
    qualities=(0.95, 0.88, 0.75, 0.60),
)


def parse_fleet(spec: str) -> tuple[str, ...]:
    """Split a ``+``-separated fleet spec into device registry names.

    ``"flexnerfer+neurex"`` -> ``("flexnerfer", "neurex")``.  The ``+``
    separator (rather than a comma) lets fleet specs live inside repeated
    comma-separated CLI parameters.
    """
    names = tuple(name.strip().lower() for name in spec.split("+") if name.strip())
    if not names:
        raise ValueError(f"empty fleet spec '{spec}'")
    return names


@dataclass(frozen=True)
class Metric:
    """One row key: how to read it and the table column that shows it.

    ``read`` is the attribute of a run's summary (a serving report, a
    tenant's stats or a plan evaluation) that holds the JSON value, or a
    function of the summary that computes it.  A ``percent`` metric keeps
    the fraction in JSON and shows it x100 in the table.
    """

    key: str
    header: str
    spec: str
    read: str | Callable[[Any], Any]
    percent: bool = False

    def value(self, source: Any) -> Any:
        """This metric's JSON value for one summary."""
        if isinstance(self.read, str):
            return getattr(source, self.read)
        return self.read(source)

    @property
    def column(self) -> Column:
        """The table column showing this metric's row cell."""
        if self.percent:
            return Column(self.header, self.spec, value=lambda row: row[self.key] * 100)
        return Column(self.header, self.spec, key=self.key)


def _milli(attribute: str) -> Callable[[Any], float]:
    """A reader of ``attribute`` in thousandths: seconds as ms, joules as mJ."""
    return lambda source: getattr(source, attribute) * 1e3


def _shed_fraction(report: ServingReport) -> float:
    """Shed completions over all completions (0 when nothing completed)."""
    if not report.completed_requests:
        return 0.0
    return report.shed_requests / report.completed_requests


#: Every metric the serving and planning tables share, by row key.
METRICS: dict[str, Metric] = {
    metric.key: metric
    for metric in (
        Metric("num_requests", "reqs", ">6", "num_requests"),
        Metric("completed", "done", ">6", "completed_requests"),
        Metric("rejected", "rej", ">5", "rejected_requests"),
        Metric("shed", "shed", ">5", "shed_requests"),
        Metric("shed_fraction", "shed %", ">7.1f", _shed_fraction, percent=True),
        Metric("mean_batch", "batch", ">6.2f", "mean_batch_size"),
        Metric("slo_attainment", "SLO %", ">6.1f", "slo_attainment", percent=True),
        Metric("sla_attainment", "SLA %", ">6.1f", "sla_attainment", percent=True),
        Metric("p50_latency_ms", "p50 [ms]", ">9.1f", _milli("p50_latency_s")),
        Metric("p95_latency_ms", "p95 [ms]", ">9.1f", _milli("p95_latency_s")),
        Metric("p99_latency_ms", "p99 [ms]", ">9.1f", _milli("p99_latency_s")),
        Metric("mean_latency_ms", "mean [ms]", ">10.1f", _milli("mean_latency_s")),
        Metric("goodput_rps", "goodput", ">8.1f", "goodput_rps"),
        Metric(
            "energy_per_request_mj",
            "E/req [mJ]",
            ">11.1f",
            _milli("energy_per_request_j"),
        ),
        Metric("cost_per_mreq", "$/Mreq", ">10.4f", lambda r: r.cost_per_request * 1e6),
        Metric("utilization", "util %", ">7.1f", "mean_utilization", percent=True),
        Metric("mean_quality", "quality", ">8.3f", "mean_quality"),
        Metric("p05_quality", "q p05", ">7.3f", "p05_quality"),
        Metric("peak_workers", "peak W", ">7", "peak_active_workers"),
        Metric("mean_workers", "mean W", ">7.2f", "mean_active_workers"),
    )
}


def metrics(*keys: str) -> tuple[Metric, ...]:
    """The :data:`METRICS` entries named by ``keys``, in that order."""
    return tuple(METRICS[key] for key in keys)


def metric_columns(entries: Iterable[Metric]) -> tuple[Column, ...]:
    """The table columns of ``entries``, in order."""
    return tuple(metric.column for metric in entries)


def metric_row(
    labels: Mapping[str, Any], source: Any, entries: Iterable[Metric]
) -> dict[str, Any]:
    """One JSON-ready row: the label cells, then each metric read off ``source``."""
    return {**labels, **{metric.key: metric.value(source) for metric in entries}}


#: One serving variant: its label cells, the fleet's device names, the
#: scheduler, and the control plane (None serves uncontrolled).
Variant = tuple[Mapping[str, Any], Sequence[str], Scheduler, ControlConfig | None]


def serve_reports(
    requests: Sequence[Request],
    variants: Iterable[Variant],
    engine: SweepEngine | None,
) -> Iterator[tuple[Mapping[str, Any], ServingReport]]:
    """Serve ``requests`` once per variant, yielding its labels and report.

    ``engine`` None serves on the shared process-wide sweep engine.
    """
    for labels, fleet, scheduler, control in variants:
        simulator = FleetSimulator(
            tuple(fleet), scheduler=scheduler, engine=engine, control=control
        )
        yield labels, simulator.run(requests)


def serve_rows(
    requests: Sequence[Request],
    variants: Iterable[Variant],
    entries: Sequence[Metric],
    engine: SweepEngine | None,
) -> list[dict[str, Any]]:
    """One :func:`metric_row` per variant of serving ``requests``.

    Each report is read into its row and dropped, so the rows keep no
    per-request logs alive.
    """
    return [
        metric_row(labels, report, entries)
        for labels, report in serve_reports(requests, variants, engine)
    ]
