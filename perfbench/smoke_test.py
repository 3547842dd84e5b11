"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout, either directly or under pytest::

    python3 perfbench/smoke_test.py
    python3 -m pytest -q perfbench/smoke_test.py

It checks that each workload, untraced and traced, prints a well-formed
result whose metrics are exactly the ones ``BENCHMARK.json`` declares, with
their units and valid names; that the traced layer self-times plus
``other.self_s`` add up to ``trace.wall_s``; and that the benchmark refuses
to run, without printing a result, where the program's sources are absent.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1"]
    command += ["--trace", str(trace), "--smoke"]
    command[0] = sys.executable if command[0] == "python3" else command[0]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_metrics(metrics: dict, declared: list[dict], positive: bool) -> None:
    assert list(metrics) == [m["name"] for m in declared]
    for spec in declared:
        metric = metrics[spec["name"]]
        assert NAME.match(spec["name"]), spec["name"]
        assert UNIT.match(metric["unit"]) and metric["unit"] == spec["unit"], spec
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), spec
        assert value > 0 if positive else value >= 0, (spec["name"], value)


def test_spec_is_well_formed() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_untraced_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = result_of(workload, trace=0)
        check_metrics(result["metrics"], SPEC["end_to_end"], positive=True)


def test_traced_metrics_add_up() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        metrics = result_of(workload, trace=1)["metrics"]
        check_metrics(metrics, SPEC["per_layer"], positive=False)
        self_s = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
        wall_s = metrics["trace.wall_s"]["value"]
        assert math.isclose(self_s, wall_s, rel_tol=1e-9), (workload, self_s, wall_s)
        assert metrics["other.self_s"]["value"] >= 0.0
        assert metrics["trace.overhead_ratio"]["value"] > 0.0


def test_refuses_without_sources() -> None:
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], trace=0, cwd=bare)
    if not any(scratch.iterdir()):
        scratch.rmdir()
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
