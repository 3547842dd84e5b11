"""Serving-log trace import/export: CSV and JSON-lines to request streams.

Production serving logs are the ground truth traffic shape; this module
turns them into the simulator's native objects with *strict* validation --
every malformed field is reported as ``path:line: message`` and surfaces
as an exit-2 one-liner through ``repro trace``.

Two on-disk formats share one record model:

* **CSV** (``.csv``): header row with the required columns ``timestamp``
  and ``model`` plus any of ``scene``, ``width``, ``height``,
  ``precision``, ``pruning_ratio``, ``tenant``, ``session``,
  ``deadline_s``; unknown columns are rejected.  Empty cells mean
  "absent".
* **JSON lines** (``.jsonl`` / ``.ndjson`` / ``.json``): one object per
  line with the same keys plus the CSV-inexpressible ``degradable`` and
  ``pose`` fields.  This is the lossless format: every
  :class:`~repro.serve.request.Request` round-trips exactly through
  :func:`dump_trace` -> :func:`load_trace`.

``timestamp`` is the absolute arrival time in seconds (non-negative,
non-decreasing in file order) and ``deadline_s`` an absolute deadline at
or after it.  Request ids are assigned ``0..n-1`` in file order.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.serve.request import (
    Request,
    RequestBatch,
    RequestStream,
    Scenario,
    ScenarioMix,
)
from repro.sparse.formats import Precision


class TraceFormatError(ValueError):
    """A trace file failed validation (message carries ``path:line:``)."""


#: CSV columns accepted by :func:`load_trace`, in canonical write order.
CSV_COLUMNS = (
    "timestamp",
    "model",
    "scene",
    "width",
    "height",
    "precision",
    "pruning_ratio",
    "tenant",
    "session",
    "deadline_s",
)

#: JSON-lines keys: the CSV columns plus the lossless-only fields.
JSONL_KEYS = CSV_COLUMNS + ("degradable", "pose")

_REQUIRED = ("timestamp", "model")


def _parse_float(raw: Any, name: str, where: str) -> float:
    """Parse ``raw`` as a finite float or fail with a located message."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise TraceFormatError(f"{where}: {name} is not a number: {raw!r}") from None
    if isinstance(raw, bool) or not math.isfinite(value):
        raise TraceFormatError(f"{where}: {name} is not a number: {raw!r}")
    return value


def _parse_int(raw: Any, name: str, where: str) -> int:
    """Parse ``raw`` as an int or fail with a located message."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise TraceFormatError(f"{where}: {name} is not an integer: {raw!r}")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise TraceFormatError(
            f"{where}: {name} is not an integer: {raw!r}"
        ) from None


def _build_request(index: int, record: dict[str, Any], where: str) -> Request:
    """Turn one normalized record dict into a :class:`Request`.

    ``record`` uses ``None`` for absent optional fields; values may still
    be strings (CSV) or JSON scalars (JSONL) -- conversion and validation
    happen here so both formats share one rule book.
    """
    for name in _REQUIRED:
        if record.get(name) in (None, ""):
            raise TraceFormatError(f"{where}: missing required field {name!r}")
    timestamp = _parse_float(record["timestamp"], "timestamp", where)
    if timestamp < 0.0:
        raise TraceFormatError(f"{where}: timestamp must be non-negative")
    model = str(record["model"])
    scene = str(record["scene"]) if record.get("scene") not in (None, "") else "lego"
    width = (
        _parse_int(record["width"], "width", where)
        if record.get("width") not in (None, "")
        else 400
    )
    height = (
        _parse_int(record["height"], "height", where)
        if record.get("height") not in (None, "")
        else 400
    )
    precision = None
    if record.get("precision") not in (None, ""):
        name = str(record["precision"]).upper()
        try:
            precision = Precision[name]
        except KeyError:
            valid = ", ".join(p.name for p in Precision)
            raise TraceFormatError(
                f"{where}: unknown precision {record['precision']!r}"
                f" (expected one of {valid})"
            ) from None
    pruning = (
        _parse_float(record["pruning_ratio"], "pruning_ratio", where)
        if record.get("pruning_ratio") not in (None, "")
        else 0.0
    )
    try:
        scenario = Scenario(
            model=model,
            scene=scene,
            width=width,
            height=height,
            precision=precision,
            pruning_ratio=pruning,
        )
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from None
    deadline = None
    if record.get("deadline_s") not in (None, ""):
        deadline = _parse_float(record["deadline_s"], "deadline_s", where)
        if deadline < timestamp:
            raise TraceFormatError(
                f"{where}: deadline_s ({deadline:g}) precedes"
                f" timestamp ({timestamp:g})"
            )
    tenant = None
    if record.get("tenant") not in (None, ""):
        tenant = str(record["tenant"])
    session = None
    if record.get("session") not in (None, ""):
        session = _parse_int(record["session"], "session", where)
        if session < 0:
            raise TraceFormatError(f"{where}: session must be non-negative")
    degradable = record.get("degradable")
    if degradable is None:
        degradable = True
    elif not isinstance(degradable, bool):
        raise TraceFormatError(
            f"{where}: degradable must be a JSON boolean: {degradable!r}"
        )
    pose = record.get("pose")
    if pose is not None:
        if not (
            isinstance(pose, (list, tuple))
            and len(pose) == 3
            and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pose)
        ):
            raise TraceFormatError(
                f"{where}: pose must be a 3-element number array: {pose!r}"
            )
        pose = (float(pose[0]), float(pose[1]), float(pose[2]))
    return Request(
        request_id=index,
        arrival_s=timestamp,
        scenario=scenario,
        deadline_s=deadline,
        tenant=tenant,
        session=session,
        degradable=degradable,
        pose=pose,
    )


def _load_csv(path: Path) -> list[Request]:
    """Parse a CSV serving log into ordered requests."""
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}:1: empty trace file") from None
        unknown = [c for c in header if c not in CSV_COLUMNS]
        if unknown:
            raise TraceFormatError(
                f"{path}:1: unknown column(s) {unknown}"
                f" (expected a subset of {list(CSV_COLUMNS)})"
            )
        missing = [c for c in _REQUIRED if c not in header]
        if missing:
            raise TraceFormatError(f"{path}:1: missing required column(s) {missing}")
        if len(set(header)) != len(header):
            raise TraceFormatError(f"{path}:1: duplicate column in header")
        requests = []
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise TraceFormatError(
                    f"{path}:{line}: expected {len(header)} cells, got {len(row)}"
                )
            record = dict(zip(header, row))
            requests.append(_build_request(len(requests), record, f"{path}:{line}"))
    return requests


def _load_jsonl(path: Path) -> list[Request]:
    """Parse a JSON-lines serving log into ordered requests."""
    requests = []
    with path.open() as handle:
        for line, text in enumerate(handle, start=1):
            if not text.strip():
                continue
            where = f"{path}:{line}"
            try:
                record = json.loads(text)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{where}: invalid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise TraceFormatError(f"{where}: each line must be a JSON object")
            unknown = sorted(set(record) - set(JSONL_KEYS))
            if unknown:
                raise TraceFormatError(
                    f"{where}: unknown key(s) {unknown}"
                    f" (expected a subset of {list(JSONL_KEYS)})"
                )
            requests.append(_build_request(len(requests), record, where))
    return requests


def load_trace(path: str | Path) -> "ImportedTrace":
    """Parse and validate a serving-log trace file.

    The format follows the suffix: ``.csv`` is parsed as CSV, ``.jsonl`` /
    ``.ndjson`` / ``.json`` as JSON lines.  Raises
    :class:`TraceFormatError` (a ``ValueError``) with a ``path:line:``
    message on any malformed record, out-of-order timestamp, or empty
    trace.
    """
    path = Path(path)
    if not path.is_file():
        raise TraceFormatError(f"no such trace file: {path}")
    if path.suffix == ".csv":
        fmt, requests = "csv", _load_csv(path)
    elif path.suffix in (".jsonl", ".ndjson", ".json"):
        fmt, requests = "jsonl", _load_jsonl(path)
    else:
        raise TraceFormatError(
            f"unsupported trace format {path.suffix!r} for {path}"
            " (expected .csv or .jsonl)"
        )
    if not requests:
        raise TraceFormatError(f"{path}: trace contains no records")
    for prev, nxt in zip(requests, requests[1:]):
        if nxt.arrival_s < prev.arrival_s:
            raise TraceFormatError(
                f"{path}: timestamps must be non-decreasing"
                f" (record {nxt.request_id}: {nxt.arrival_s:g}"
                f" after {prev.arrival_s:g})"
            )
    return ImportedTrace(path=str(path), format=fmt, requests=tuple(requests))


@dataclass(frozen=True)
class ImportedTrace:
    """A validated serving-log trace: ordered requests plus provenance."""

    path: str
    format: str
    requests: tuple[Request, ...]

    def mix(self) -> ScenarioMix:
        """Empirical scenario mix (counts as weights, first-appearance order)."""
        order: list[Scenario] = []
        counts: dict[Scenario, int] = {}
        for request in self.requests:
            if request.scenario not in counts:
                order.append(request.scenario)
                counts[request.scenario] = 0
            counts[request.scenario] += 1
        return ScenarioMix(
            tuple(order), tuple(float(counts[s]) for s in order)
        )

    def stream(self) -> "ImportedTraceStream":
        """A replayable :class:`RequestStream` over the imported requests."""
        return ImportedTraceStream(self.requests, self.mix())

    def summary(self) -> dict[str, Any]:
        """JSON-safe overview: span, rate, per-scenario/tenant/session counts."""
        n = len(self.requests)
        first = self.requests[0].arrival_s
        last = self.requests[-1].arrival_s
        span = last - first
        tenants: dict[str, int] = {}
        sessions = set()
        for request in self.requests:
            if request.tenant is not None:
                tenants[request.tenant] = tenants.get(request.tenant, 0) + 1
            if request.session is not None:
                sessions.add(request.session)
        mix = self.mix()
        assert mix.weights is not None
        return {
            "path": self.path,
            "format": self.format,
            "requests": n,
            "first_arrival_s": first,
            "last_arrival_s": last,
            "duration_s": span,
            "offered_rps": n / span if span > 0 else 0.0,
            "with_deadline": sum(
                1 for r in self.requests if r.deadline_s is not None
            ),
            "pinned": sum(1 for r in self.requests if not r.degradable),
            "tenants": {name: tenants[name] for name in sorted(tenants)},
            "sessions": len(sessions),
            "scenarios": [
                {"label": s.label, "count": int(w), "share": w / n}
                for s, w in zip(mix.scenarios, mix.weights)
            ],
        }


class ImportedTraceStream(RequestStream):
    """Verbatim replay of an imported trace's requests.

    The trace *is* the realization, so :meth:`generate` ignores the seed
    and returns the recorded requests, wrapped once in a batch, unchanged
    -- the conformance harness marks this stream seed-insensitive by
    design.
    """

    def __init__(self, requests: Sequence[Request], mix: ScenarioMix) -> None:
        """Wrap already-validated ordered requests and their empirical mix."""
        super().__init__(mix, sla_s=None)
        self._requests = RequestBatch.of(requests)

    def arrivals(self, rng: random.Random) -> Iterator[float]:
        """Yield the recorded arrival times verbatim."""
        yield from self._requests.arrival_s

    def pick(self, index: int, rng: random.Random) -> Scenario:
        """Return the recorded scenario of request ``index``."""
        return self._requests.scenario[index]

    def generate(self, seed: int = 0) -> RequestBatch:
        """Replay the imported requests (the seed is irrelevant)."""
        return self._requests


def _jsonl_record(request: Request) -> dict[str, Any]:
    """The JSON-lines object for one request (defaults elided)."""
    scenario = request.scenario
    record: dict[str, Any] = {
        "timestamp": request.arrival_s,
        "model": scenario.model,
        "scene": scenario.scene,
        "width": scenario.width,
        "height": scenario.height,
    }
    if scenario.precision is not None:
        record["precision"] = scenario.precision.name
    if scenario.pruning_ratio:
        record["pruning_ratio"] = scenario.pruning_ratio
    if request.tenant is not None:
        record["tenant"] = request.tenant
    if request.session is not None:
        record["session"] = request.session
    if request.deadline_s is not None:
        record["deadline_s"] = request.deadline_s
    if not request.degradable:
        record["degradable"] = False
    if request.pose is not None:
        record["pose"] = list(request.pose)
    return record


def trace_to_jsonl(requests: Sequence[Request]) -> str:
    """Render requests as the lossless JSON-lines trace text."""
    return "".join(json.dumps(_jsonl_record(r)) + "\n" for r in requests)


def _csv_cell(value: Any) -> str:
    """One CSV cell: floats via ``repr`` (lossless), ``None`` as empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def dump_trace(requests: Sequence[Request], path: str | Path) -> None:
    """Write requests as a trace file (format by suffix, like the loader).

    CSV cannot express ``pose`` or ``degradable=False``; dumping such a
    request to ``.csv`` raises :class:`TraceFormatError` pointing at the
    JSON-lines format instead.
    """
    path = Path(path)
    if path.suffix == ".csv":
        for request in requests:
            if request.pose is not None or not request.degradable:
                raise TraceFormatError(
                    f"request {request.request_id} carries pose/degradable"
                    " fields CSV cannot express; write a .jsonl trace instead"
                )
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for request in requests:
                scenario = request.scenario
                writer.writerow(
                    [
                        _csv_cell(request.arrival_s),
                        scenario.model,
                        scenario.scene,
                        scenario.width,
                        scenario.height,
                        scenario.precision.name if scenario.precision else "",
                        _csv_cell(scenario.pruning_ratio),
                        _csv_cell(request.tenant),
                        _csv_cell(request.session),
                        _csv_cell(request.deadline_s),
                    ]
                )
    elif path.suffix in (".jsonl", ".ndjson", ".json"):
        path.write_text(trace_to_jsonl(requests))
    else:
        raise TraceFormatError(
            f"unsupported trace format {path.suffix!r} for {path}"
            " (expected .csv or .jsonl)"
        )
