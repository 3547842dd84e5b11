"""Scenario library: trace import plus generative traffic shapes.

This package supplies the demand-side workloads the ROADMAP's "scenario
library" item asks for, all on the
:class:`~repro.serve.request.RequestStream` contract (seeded
bit-determinism, sequential ids, non-decreasing arrivals) so they drop
into both the event-loop and FIFO fast-path simulators unchanged:

* :mod:`repro.serve.traffic.importer` -- :func:`load_trace` /
  :func:`dump_trace` for CSV and JSON-lines serving logs, with strict
  ``path:line:`` validation (surfaced by ``repro trace``), and
  :class:`ImportedTraceStream` to replay them;
* :mod:`repro.serve.traffic.streams` -- :class:`FlashCrowdStream`
  (baseline + seeded burst epochs), :class:`MarkedBurstStream`
  (self-exciting correlated arrivals) and :class:`MultiTenantStream`
  (per-tenant rates / mixes / SLAs);
* :mod:`repro.serve.traffic.session` -- :class:`SessionStream`,
  interactive orbit sessions with strict per-frame deadlines and a
  quality-degradable flag for the degradation ladder.

Every stream here is certified by the conformance harness in
``tests/serve/stream_conformance.py``; see ``docs/scenarios.md``.  The
re-exports are lazy: a name loads only the submodule that defines it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        "repro.serve.traffic.importer": (
            "CSV_COLUMNS",
            "ImportedTraceStream",
            "TraceFormatError",
            "dump_trace",
            "load_trace",
            "trace_to_jsonl",
        ),
        "repro.serve.traffic.session": ("SessionStream",),
        "repro.serve.traffic.streams": (
            "FlashCrowdStream",
            "MarkedBurstStream",
            "MultiTenantStream",
            "TenantSpec",
        ),
    },
)
