"""Text renderings of a ``repro plan`` document: table, CSV and JSON.

The document is what ``repro plan`` prints or writes with ``--out``; the
table goes through the experiments' shared fixed-width renderer, and
``--check`` compares documents through :func:`normalize_result_json`.
"""

from __future__ import annotations

import json
import re
from operator import itemgetter
from typing import Any

from repro.experiments.api import Column, render_grid
from repro.plan.evaluate import EvaluatedPoint

#: Frontier table columns; cells read one frontier row (a plain mapping).
FRONTIER_COLUMNS = (
    Column("fleet", "<24", value=lambda row: "+".join(row["fleet"])),
    Column("n", ">2", value=lambda row: len(row["fleet"])),
    Column("scheduler", "<15", value=itemgetter("scheduler")),
    Column("control", "<12", value=itemgetter("control")),
    Column("traffic", "<12", value=itemgetter("traffic")),
    Column("$/Mreq", ">10.4f", value=lambda row: row["cost_per_request"] * 1e6),
    Column("p99 [ms]", ">9.2f", value=lambda row: row["p99_latency_s"] * 1e3),
    Column("mJ/req", ">8.2f", value=lambda row: row["energy_per_request_j"] * 1e3),
    Column("SLO %", ">6.1f", value=lambda row: row["slo_attainment"] * 100),
)

#: Frontier fields of the CSV rendering, after the ``fleet`` column.
CSV_FIELDS = (
    "scheduler", "control", "traffic", "cost_per_request", "p99_latency_s",
    "energy_per_request_j", "slo_attainment", "goodput_rps", "completed_requests",
)

#: The one volatile field of a rendered document: the provenance wall time,
#: which records the producing run's measurement.
_WALL_TIME_RE = re.compile(r'("wall_time_s":\s*)[-+0-9.eE]+')


def normalize_result_json(text: str) -> str:
    """``text`` with the volatile provenance wall-clock field zeroed.

    A warm replay reproduces every simulated number, but two producing runs
    measure different wall times.  Substituting only the ``wall_time_s``
    number leaves every other byte intact, so comparing normalized texts
    still pins all simulated content bit for bit.
    """
    return _WALL_TIME_RE.sub(r"\g<1>0.0", text)


def plan_point_dict(evaluated: EvaluatedPoint) -> dict[str, Any]:
    """One evaluated plan point as a flat JSON-safe mapping."""
    payload = evaluated.to_payload()
    return {**payload["point"], **payload["metrics"]}


def _table(document: dict[str, Any]) -> str:
    """Summary line, frontier table and constraint solution of a document."""
    lines = [
        f"plan {document['spec']}: frontier {len(document['frontier'])} of "
        f"{document['evaluated']} evaluated points",
        render_grid(FRONTIER_COLUMNS, document["frontier"]),
    ]
    constraint = document.get("constraint")
    if constraint is not None:
        solution = constraint["solution"]
        fleet = "+".join(solution["fleet"])
        lines.append(
            f"cheapest feasible: {fleet} ({solution['scheduler']}, "
            f"{solution['control']}) at {solution['cost_per_request'] * 1e6:.4f} "
            f"$/Mreq, p99 {solution['p99_latency_s'] * 1e3:.2f} ms, "
            f"attainment {solution['slo_attainment'] * 100:.1f}%"
        )
    return "\n".join(lines)


def _csv(document: dict[str, Any]) -> str:
    """CSV rendering of a document's frontier rows (floats round-trip)."""
    lines = ["fleet," + ",".join(CSV_FIELDS)]
    for row in document["frontier"]:
        lines.append(",".join(["+".join(row["fleet"])] + [str(row[f]) for f in CSV_FIELDS]))
    return "\n".join(lines)


def render_plan(document: dict[str, Any], fmt: str) -> str:
    """Render a plan document as ``table``, ``json`` or ``csv`` text."""
    if fmt == "json":
        return json.dumps(document, indent=2)
    if fmt == "csv":
        return _csv(document)
    return _table(document)
