"""The ``repro bench`` harness: measured performance trajectory points.

Every invocation produces one schema-versioned JSON document
(``BENCH_<rev>.json``) with four measured sections:

* ``sweep`` -- one reference device x model x precision x pruning sweep
  timed two ways: **cold** (fresh engine, every unique point simulated)
  and **warm_memory** (same engine re-run, every point a report-cache
  hit);
* ``experiments`` -- per-experiment wall time, in registry order on the
  shared engine, exactly like ``repro run all``;
* ``serving`` -- :class:`~repro.serve.fleet.FleetSimulator` throughput on
  the reference scenario mix (requests simulated per wall-clock second);
* ``hot_path`` -- microbenchmarks of the memoised cycle-model hot paths
  (:func:`repro.sim.tiling.tile_counts`,
  :func:`repro.sim.memory.stored_operand_bytes`) against their uncached
  originals, quantifying the optimization the store cannot see.

``--quick`` shrinks every section to a CI-smoke footprint.  The document
layout is guarded by :func:`validate_bench`, which ``repro bench
--validate`` (and CI) runs so schema drift fails loudly instead of
corrupting the trajectory; see ``docs/performance.md`` for how to read the
numbers.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

#: Version of the BENCH document layout; bump on any structural change so
#: trajectory consumers can refuse documents they do not understand.
BENCH_SCHEMA_VERSION = 1

#: The ``schema`` marker every BENCH document carries.
BENCH_SCHEMA = "repro-bench"

#: Experiment ids the quick (CI smoke) experiment section is limited to:
#: one analytical, one hardware-cost, one frame-simulating study, and the
#: two historical wall-time whales (fig13 / fig20a), whose budget CI
#: enforces (see ``.github/workflows/ci.yml``).
QUICK_EXPERIMENT_IDS = ("fig04", "fig16", "fig01", "fig13", "fig20a")


def repo_revision() -> str:
    """Short git revision of the measured tree (``-dirty`` when modified).

    Falls back to ``unknown`` outside a git checkout so the harness stays
    usable from plain source archives.
    """
    root = Path(__file__).resolve().parents[3]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return f"{rev}-dirty" if status else rev
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


# -- measured sections ---------------------------------------------------------


def _reference_spec(quick: bool):
    """The sweep the cold/warm comparison times (smaller under ``--quick``)."""
    from repro.nerf.models import FrameConfig
    from repro.sim.sweep import SweepSpec
    from repro.sparse.formats import Precision

    if quick:
        return SweepSpec(
            devices=("flexnerfer",),
            models=("instant-ngp",),
            precisions=(None, Precision.INT8),
            pruning_ratios=(0.0, 0.5),
            base_config=FrameConfig(image_width=200, image_height=200),
        )
    # Matches the experiments' default frame shape (800x800) and spans the
    # capability space (precision-scalable, fixed-precision, roofline and
    # utilisation-model devices) so cold_s is a representative, reliably
    # timeable simulation load rather than a microsecond blip.
    return SweepSpec(
        devices=("flexnerfer", "neurex", "rtx-2080-ti", "nvdla", "tpu"),
        models=("nerf", "instant-ngp", "tensorf", "kilonerf"),
        precisions=(None, Precision.INT8, Precision.INT4),
        pruning_ratios=(0.0, 0.5, 0.9),
        base_config=FrameConfig(),
    )


def bench_sweep(quick: bool) -> dict[str, Any]:
    """Time the reference sweep cold and memory-warm on one engine."""
    from repro.sim.sweep import SweepEngine

    spec = _reference_spec(quick)
    engine = SweepEngine()
    start = time.perf_counter()
    rows = engine.run(spec)
    cold_s = time.perf_counter() - start
    render_calls = engine.stats.render_calls

    start = time.perf_counter()
    engine.run(spec)
    warm_memory_s = time.perf_counter() - start
    return {
        "sweep_points": len(rows),
        "render_calls": render_calls,
        "cold_s": cold_s,
        "warm_memory_s": warm_memory_s,
    }


def bench_experiments(quick: bool) -> list[dict[str, Any]]:
    """Wall time of each experiment, run in registry order on one engine."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.sim.sweep import get_default_engine

    # Cold in-memory timings: experiments share the process-wide engine
    # (so the numbers reflect `repro run all` cache reuse between
    # experiments) but never a persistent store or earlier activity.  The
    # caller's store attachment is restored afterwards; the cleared
    # in-memory caches simply re-warm.
    engine = get_default_engine()
    previous_store = engine.store
    engine.clear()
    engine.attach_store(None)
    rows = []
    try:
        for exp_id, exp in EXPERIMENTS.items():
            if quick and exp_id not in QUICK_EXPERIMENT_IDS:
                continue
            result = exp.run()
            rows.append(
                {"id": exp_id, "wall_time_s": result.provenance.wall_time_s}
            )
    finally:
        engine.attach_store(previous_store)
    return rows


def bench_serving(quick: bool) -> dict[str, Any]:
    """Event-loop throughput of the fleet simulator on warmed estimates."""
    from repro.plan.space import REFERENCE_MIX
    from repro.serve.fleet import FleetSimulator
    from repro.serve.request import PoissonStream
    from repro.serve.scheduler import FIFOScheduler
    from repro.sim.sweep import SweepEngine

    duration_s = 10.0 if quick else 60.0
    rate_rps = 40.0
    stream = PoissonStream(
        rate_rps=rate_rps, duration_s=duration_s, mix=REFERENCE_MIX, sla_s=0.25
    )
    requests = stream.generate(seed=0)
    engine = SweepEngine()
    simulator = FleetSimulator(
        ("flexnerfer", "neurex"), scheduler=FIFOScheduler(), engine=engine
    )
    simulator.run(requests)  # warm the frame-report cache
    start = time.perf_counter()
    report = simulator.run(requests)
    wall_s = time.perf_counter() - start
    return {
        "num_requests": report.num_requests,
        "simulated_duration_s": duration_s,
        "offered_rate_rps": rate_rps,
        "wall_s": wall_s,
        "requests_per_wall_s": report.num_requests / wall_s if wall_s > 0 else 0.0,
        "time_compression": duration_s / wall_s if wall_s > 0 else 0.0,
    }


def _time_per_call(fn, arguments: list[tuple], repeats: int) -> float:
    """Mean seconds per call of ``fn`` over ``repeats`` passes of ``arguments``."""
    start = time.perf_counter()
    for _ in range(repeats):
        for args in arguments:
            fn(*args)
    elapsed = time.perf_counter() - start
    return elapsed / max(1, repeats * len(arguments))


def bench_hot_path(quick: bool) -> dict[str, Any]:
    """Microbenchmark the memoised hot paths against their uncached originals."""
    from repro.nerf.models import FrameConfig, get_model
    from repro.sim.array_config import ArrayConfig
    from repro.sim.memory import stored_operand_bytes
    from repro.sim.tiling import tile_counts

    repeats = 20 if quick else 200
    config = ArrayConfig(name="bench", supports_sparsity=True)
    workload = get_model("instant-ngp").build_workload(
        FrameConfig(image_width=200, image_height=200)
    )
    gemm_ops = workload.gemm_ops()

    tiling_args = [(op, config) for op in gemm_ops]
    tile_counts.cache_clear()
    cached_tiling_s = _time_per_call(tile_counts, tiling_args, repeats)
    uncached_tiling_s = _time_per_call(
        tile_counts.__wrapped__, tiling_args, repeats
    )

    operand_args = [
        (op.k, op.n, op.weight_sparsity, op.precision, True) for op in gemm_ops
    ]
    stored_operand_bytes.cache_clear()
    cached_operand_s = _time_per_call(stored_operand_bytes, operand_args, repeats)
    uncached_operand_s = _time_per_call(
        stored_operand_bytes.__wrapped__, operand_args, repeats
    )

    def section(cached_s: float, uncached_s: float) -> dict[str, float]:
        return {
            "cached_s_per_call": cached_s,
            "uncached_s_per_call": uncached_s,
            "speedup": uncached_s / cached_s if cached_s > 0 else 0.0,
        }

    return {
        "tiling": section(cached_tiling_s, uncached_tiling_s),
        "operand_bytes": section(cached_operand_s, uncached_operand_s),
        "scene_density": _bench_scene_density(quick),
        "fleet_dispatch": _bench_fleet_dispatch(quick),
    }


def _bench_scene_density(quick: bool) -> dict[str, float]:
    """Batched scene-field kernel vs the seed broadcast implementation.

    Times :meth:`~repro.nerf.scenes.SyntheticScene.density` (the chunked
    squared-distance GEMM) against
    :meth:`~repro.nerf.scenes.SyntheticScene.reference_density` (the
    ``(N, P, 3)`` broadcast) on one query batch of the renderers' scale.
    """
    import numpy as np

    from repro.nerf.scenes import get_scene

    scene = get_scene("lego")
    num_points = 8_000 if quick else 60_000
    points = np.random.default_rng(0).uniform(-1.0, 1.0, size=(num_points, 3))
    repeats = 2 if quick else 5
    batched_s = _time_per_call(scene.density, [(points,)], repeats)
    reference_s = _time_per_call(scene.reference_density, [(points,)], repeats)
    return {
        "num_points": num_points,
        "batched_s_per_call": batched_s,
        "reference_s_per_call": reference_s,
        "speedup": reference_s / batched_s if batched_s > 0 else 0.0,
    }


def _bench_fleet_dispatch(quick: bool) -> dict[str, float]:
    """FIFO fleet fast path vs the discrete-event loop on one short trace.

    Both paths produce bit-identical reports (asserted here as well as in
    the test suite); the measurement is pure dispatch overhead on warmed
    frame-report caches.
    """
    from repro.plan.space import REFERENCE_MIX
    from repro.serve.fleet import FleetSimulator
    from repro.serve.request import PoissonStream
    from repro.sim.sweep import SweepEngine

    duration_s = 5.0 if quick else 20.0
    stream = PoissonStream(
        rate_rps=40.0, duration_s=duration_s, mix=REFERENCE_MIX, sla_s=0.25
    )
    requests = stream.generate(seed=0)
    simulator = FleetSimulator(("flexnerfer", "neurex"), engine=SweepEngine())
    fast_report = simulator.run(requests)  # warms the frame-report cache
    repeats = 2 if quick else 5
    fast_s = _time_per_call(simulator.run, [(requests,)], repeats)
    event_loop_s = _time_per_call(
        simulator._run_event_loop, [(requests,)], repeats
    )
    if simulator._run_event_loop(requests) != fast_report:  # pragma: no cover
        raise RuntimeError("fleet fast path diverged from the event loop")
    return {
        "num_requests": len(requests),
        "fast_s_per_run": fast_s,
        "event_loop_s_per_run": event_loop_s,
        "requests_per_wall_s": len(requests) / fast_s if fast_s > 0 else 0.0,
        "speedup": event_loop_s / fast_s if fast_s > 0 else 0.0,
    }


# -- the document --------------------------------------------------------------


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Run every section and assemble one BENCH document."""
    from repro import __version__

    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "revision": repo_revision(),
        "repo_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sweep": bench_sweep(quick),
        "experiments": bench_experiments(quick),
        "serving": bench_serving(quick),
        "hot_path": bench_hot_path(quick),
    }


#: Required (key, type) pairs of the document root.
_ROOT_FIELDS: tuple[tuple[str, type | tuple[type, ...]], ...] = (
    ("schema", str),
    ("schema_version", int),
    ("revision", str),
    ("repo_version", str),
    ("created_utc", str),
    ("quick", bool),
    ("python", str),
    ("platform", str),
    ("sweep", dict),
    ("experiments", list),
    ("serving", dict),
    ("hot_path", dict),
)

#: Required numeric keys per measured section.  Older points may carry
#: more sweep keys (the retired store-warm timing); they still validate.
_SECTION_FIELDS = {
    "sweep": ("sweep_points", "render_calls", "cold_s", "warm_memory_s"),
    "serving": (
        "num_requests",
        "simulated_duration_s",
        "offered_rate_rps",
        "wall_s",
        "requests_per_wall_s",
        "time_compression",
    ),
}


def validate_bench(document: Any) -> list[str]:
    """Schema-check one BENCH document; returns the list of problems.

    An empty list means the document conforms to
    :data:`BENCH_SCHEMA_VERSION`; CI runs this after ``repro bench
    --quick`` so any drift between emitter and schema fails the build.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, expected object"]
    for key, expected in _ROOT_FIELDS:
        if key not in document:
            problems.append(f"missing key '{key}'")
        elif not isinstance(document[key], expected):
            problems.append(
                f"'{key}' is {type(document[key]).__name__}, "
                f"expected {getattr(expected, '__name__', expected)}"
            )
    if problems:
        return problems
    if document["schema"] != BENCH_SCHEMA:
        problems.append(
            f"schema is '{document['schema']}', expected '{BENCH_SCHEMA}'"
        )
    if document["schema_version"] != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {document['schema_version']} does not match "
            f"this build's {BENCH_SCHEMA_VERSION} (schema drift)"
        )
    for section, keys in _SECTION_FIELDS.items():
        for key in keys:
            if key not in document[section]:
                problems.append(f"'{section}' section missing key '{key}'")
            elif not isinstance(document[section][key], (int, float)):
                problems.append(f"'{section}.{key}' is not numeric")
    for index, row in enumerate(document["experiments"]):
        if not isinstance(row, dict) or "id" not in row or "wall_time_s" not in row:
            problems.append(f"experiments[{index}] lacks id / wall_time_s")
    # Every hot_path microbenchmark section is optional: the emitted set
    # has grown over time (tiling / operand_bytes, then scene_density /
    # fleet_dispatch) and may grow again, and committed trajectory points
    # from older -- or newer -- revisions must keep validating so --trend
    # and --compare can span them.  Whatever sections are present must
    # each carry a speedup measurement.
    for name, section in document["hot_path"].items():
        if not isinstance(section, dict) or "speedup" not in section:
            problems.append(f"hot_path.{name} lacks a speedup measurement")
    return problems


#: Headline metrics ``compare_bench`` reports: (dotted path, higher-is-better).
_COMPARE_METRICS: tuple[tuple[str, bool], ...] = (
    ("sweep.cold_s", False),
    ("sweep.warm_memory_s", False),
    ("serving.requests_per_wall_s", True),
    ("serving.time_compression", True),
    # All hot_path sections are optional: compare_bench silently skips
    # metrics absent from either document.
    ("hot_path.tiling.speedup", True),
    ("hot_path.operand_bytes.speedup", True),
    ("hot_path.scene_density.speedup", True),
    ("hot_path.fleet_dispatch.speedup", True),
    ("hot_path.fleet_dispatch.requests_per_wall_s", True),
)


def _lookup(document: dict[str, Any], dotted: str) -> float | None:
    """Resolve a dotted metric path in ``document`` (None when absent)."""
    node: Any = document
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _delta_pct(baseline: float, current: float) -> float | None:
    """Percentage change of ``current`` over ``baseline`` (None at zero)."""
    if baseline == 0:
        return None
    return (current - baseline) / baseline * 100.0


def compare_bench(
    baseline: dict[str, Any], current: dict[str, Any]
) -> dict[str, Any]:
    """Regression deltas of ``current`` relative to ``baseline``.

    Both documents must validate and carry matching ``quick`` flags
    (comparing a smoke point against a full trajectory point is
    meaningless); mismatches raise ValueError.  Differing ``platform`` /
    ``python`` fields do not block the comparison -- the numbers may still
    be wanted across machines -- but are surfaced as warnings, since
    absolute times only regress meaningfully on the same machine class.

    Returns a JSON-safe report: headline ``metrics`` (value in each
    document, percentage delta, and whether the movement is a regression
    for that metric's direction) plus per-experiment wall-time deltas
    matched by id.
    """
    for label, document in (("baseline", baseline), ("current", current)):
        problems = validate_bench(document)
        if problems:
            raise ValueError(f"{label} document is not a valid BENCH: {problems[0]}")
    if baseline["quick"] != current["quick"]:
        raise ValueError(
            "cannot compare across quick flags "
            f"(baseline quick={baseline['quick']}, current quick={current['quick']})"
        )
    warnings = [
        f"{field} differs ({baseline[field]} vs {current[field]}); "
        "absolute times are not comparable across machines"
        for field in ("platform", "python")
        if baseline[field] != current[field]
    ]
    metrics = []
    for dotted, higher_is_better in _COMPARE_METRICS:
        value_a = _lookup(baseline, dotted)
        value_b = _lookup(current, dotted)
        if value_a is None or value_b is None:
            continue  # optional hot_path section absent from one document
        delta = _delta_pct(value_a, value_b)
        metrics.append(
            {
                "metric": dotted,
                "baseline": value_a,
                "current": value_b,
                "delta_pct": delta,
                "regression": (
                    value_b < value_a if higher_is_better else value_b > value_a
                ),
            }
        )
    walls_a = {row["id"]: row["wall_time_s"] for row in baseline["experiments"]}
    walls_b = {row["id"]: row["wall_time_s"] for row in current["experiments"]}
    experiments = [
        {
            "id": exp_id,
            "baseline": walls_a[exp_id],
            "current": walls_b[exp_id],
            "delta_pct": _delta_pct(walls_a[exp_id], walls_b[exp_id]),
        }
        for exp_id in walls_a
        if exp_id in walls_b
    ]
    return {
        "baseline_revision": baseline["revision"],
        "current_revision": current["revision"],
        "quick": bool(baseline["quick"]),
        "warnings": warnings,
        "metrics": metrics,
        "experiments": experiments,
        "unmatched_experiments": sorted(set(walls_a) ^ set(walls_b)),
    }


def render_compare(comparison: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`compare_bench` report."""
    lines = [
        f"BENCH compare: {comparison['baseline_revision']} -> "
        f"{comparison['current_revision']}"
        + (" (quick smoke points)" if comparison["quick"] else "")
    ]
    lines += [f"warning: {warning}" for warning in comparison["warnings"]]
    lines += [
        "",
        f"{'metric':<34} {'baseline':>12} {'current':>12} {'delta':>9}",
    ]
    for row in comparison["metrics"]:
        delta = row["delta_pct"]
        delta_text = f"{delta:+8.1f}%" if delta is not None else "      n/a"
        marker = "  <-- regression" if row["regression"] else ""
        lines.append(
            f"{row['metric']:<34} {row['baseline']:>12.4g} "
            f"{row['current']:>12.4g} {delta_text}{marker}"
        )
    if comparison["experiments"]:
        lines += ["", "experiment wall times (s):"]
        for row in comparison["experiments"]:
            delta = row["delta_pct"]
            delta_text = f"{delta:+8.1f}%" if delta is not None else "      n/a"
            lines.append(
                f"  {row['id']:<32} {row['baseline']:>12.3f} "
                f"{row['current']:>12.3f} {delta_text}"
            )
    if comparison["unmatched_experiments"]:
        lines.append(
            "only in one document: "
            + ", ".join(comparison["unmatched_experiments"])
        )
    return "\n".join(lines)


# -- the trend scoreboard ------------------------------------------------------

#: Columns of the trend scoreboard: (header, extractor id, higher-is-better).
#: Extractor ids are dotted metric paths, or ``experiment:<id>`` for a row
#: of the per-experiment wall-time list.
_TREND_COLUMNS: tuple[tuple[str, str, bool], ...] = (
    ("sweep cold s", "sweep.cold_s", False),
    ("fig13 s", "experiment:fig13", False),
    ("fig20a s", "experiment:fig20a", False),
    ("serving req/s", "serving.requests_per_wall_s", True),
)


def _trend_value(document: dict[str, Any], extractor: str) -> float | None:
    """Resolve one trend column in ``document`` (None when absent)."""
    if extractor.startswith("experiment:"):
        wanted = extractor.split(":", 1)[1]
        for row in document.get("experiments", ()):
            if isinstance(row, dict) and row.get("id") == wanted:
                value = row.get("wall_time_s")
                return float(value) if isinstance(value, (int, float)) else None
        return None
    return _lookup(document, extractor)


def load_bench_documents(directory: Path) -> list[tuple[Path, dict[str, Any]]]:
    """Every readable, valid ``BENCH_*.json`` under ``directory``.

    Returned in measurement order (by ``created_utc``); unreadable or
    schema-invalid files are skipped silently -- the trend is a scoreboard,
    not a validator (``repro bench --validate`` is).
    """
    documents: list[tuple[Path, dict[str, Any]]] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not validate_bench(document):
            documents.append((path, document))
    documents.sort(key=lambda item: str(item[1].get("created_utc", "")))
    return documents


def trend_report(documents: list[dict[str, Any]]) -> dict[str, Any]:
    """The trajectory scoreboard over ``documents`` (measurement order).

    One point per document: revision, quick flag, every
    :data:`_TREND_COLUMNS` metric, and direction-aware percentage deltas
    against the *previous comparable* point (same ``quick`` flag --
    deltas between a smoke point and a full point are meaningless and are
    omitted).  A delta is a regression when it moves against the metric's
    direction.
    """
    points: list[dict[str, Any]] = []
    previous_by_quick: dict[bool, dict[str, Any]] = {}
    for document in documents:
        quick = bool(document.get("quick", False))
        values = {
            header: _trend_value(document, extractor)
            for header, extractor, _ in _TREND_COLUMNS
        }
        deltas: dict[str, dict[str, Any]] = {}
        previous = previous_by_quick.get(quick)
        if previous is not None:
            for header, _, higher_is_better in _TREND_COLUMNS:
                baseline = previous["values"].get(header)
                current = values.get(header)
                if baseline is None or current is None:
                    continue
                delta = _delta_pct(baseline, current)
                if delta is None:
                    continue
                deltas[header] = {
                    "delta_pct": delta,
                    "regression": (
                        current < baseline
                        if higher_is_better
                        else current > baseline
                    ),
                }
        point = {
            "revision": document.get("revision", "unknown"),
            "created_utc": document.get("created_utc", ""),
            "quick": quick,
            "values": values,
            "deltas": deltas,
        }
        points.append(point)
        previous_by_quick[quick] = point
    return {
        "columns": [
            {"header": header, "higher_is_better": higher}
            for header, _, higher in _TREND_COLUMNS
        ],
        "points": points,
    }


def _trend_cell(value: float | None) -> str:
    """One value cell of the trend table."""
    if value is None:
        return "-"
    if value >= 10_000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def render_trend(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`trend_report` scoreboard."""
    points = report["points"]
    headers = [column["header"] for column in report["columns"]]
    if not points:
        return "no valid BENCH_*.json documents found"
    lines = [f"BENCH trend: {len(points)} point(s), oldest -> newest", ""]
    lines.append(
        f"{'revision':<16} {'quick':<6}"
        + "".join(f" {header:>14}" for header in headers)
    )
    for point in points:
        lines.append(
            f"{point['revision']:<16} {'yes' if point['quick'] else 'no':<6}"
            + "".join(
                f" {_trend_cell(point['values'].get(header)):>14}"
                for header in headers
            )
        )
        if point["deltas"]:
            cells = []
            for header in headers:
                delta = point["deltas"].get(header)
                if delta is None:
                    cells.append(f" {'':>14}")
                    continue
                text = f"{delta['delta_pct']:+.1f}%"
                if delta["regression"]:
                    text += " !"
                cells.append(f" {text:>14}")
            lines.append(f"{'  vs previous':<16} {'':<6}" + "".join(cells))
    if any(point["deltas"].get(h, {}).get("regression") for point in points for h in headers):
        lines += ["", "! marks a direction-aware regression vs the previous comparable point"]
    return "\n".join(lines)


def bench_filename(revision: str) -> str:
    """Canonical trajectory filename for a document measured at ``revision``."""
    return f"BENCH_{revision}.json"


def default_bench_dir() -> Path:
    """Where ``repro bench`` writes by default: the repository checkout root."""
    root = Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").exists():
        return root
    return Path(".")


def write_bench(document: dict[str, Any], out: Path | None = None) -> Path:
    """Write ``document`` to ``out`` (a directory or file path); returns the path.

    ``out`` is taken as a directory (created if needed) unless it names a
    ``.json`` file, in which case the document is written there verbatim.
    """
    if out is None:
        out = default_bench_dir()
    if out.suffix == ".json" and not out.is_dir():
        path = out
    else:
        path = out / bench_filename(document["revision"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin shim
    """Allow ``python -m repro.perf.bench`` as a CLI-free entry point."""
    from repro.experiments.cli import main as cli_main

    return cli_main(["bench", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover - exercised via the repro CLI
    sys.exit(main())
