"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-fast-path --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics: it starts fresh child
processes (``perfbench/workloads.py``) one after another until ``--seconds``
are spent, at least three.  Each sets the program up once and runs timed
passes: one for ``run-all-cold``, as many as its share of ``--seconds``
allows for the serve workloads.  Set-up time and peak RSS are medians over
the children.

Every host time is scaled to the reference host speed: the child times a
fixed probe kernel (``workloads.probe_kernel``) around each operation, and
an operation's time counts as ``host_s * REFERENCE_PROBE_S / probe_s``.
The shared host this was built on changes speed by 20-50% for seconds to
minutes at a time, and the probe slows with it.  Each operation's scaled
time is a median over the passes; the pass metrics are built from those
medians.

``--trace 1`` runs pairs of one untraced and one traced child, one pass
each, for ``--seconds`` (at least one pair) and reports the per-layer
breakdown of the median traced child, with the tracing overhead.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable table.  ``--smoke`` runs every workload at a tiny size
(no pinned digests); ``--pin`` rewrites the pinned report digests of a
serve workload from a run on the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space for the children's result stores, removed after each child.
SCRATCH_DIR = ROOT / ".perfbench-tmp"
DIGESTS_FILE = BENCH_DIR / "digests.json"
WORKLOADS = ("run-all-cold", "serve-fast-path", "serve-event-loop")
#: The seed whose serving reports must match the pinned digests.
DEFAULT_SEED = 0
#: Set-up is measured in every child; at least this many per run.
MIN_CHILDREN = 3
#: Host seconds of ``workloads.probe_kernel`` on the reference host, a
#: 2-vCPU Intel Xeon VM at 2.1 GHz, in its slower (more common) state.  It
#: fixes the unit of every time metric: changing it rescales them all.
REFERENCE_PROBE_S = 0.0205
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "req_per_s.nominal": "1/s",
    "req_per_s.overload": "1/s",
    "peak_rss_mb": "MiB",
}


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def child_env(store_dir: Path) -> dict[str, str]:
    """Environment of a child: the checkout's sources, one thread, own store."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH", "")) if part
    )
    env["REPRO_STORE_DIR"] = str(store_dir)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(
    workload: str, seed: int, smoke: bool, seconds: float | None = None, traced: bool = False
) -> dict:
    """Run one child to completion; its result plus the measured set-up time.

    Given ``seconds``, the child times the host-speed probe and repeats
    passes (if its workload can) until that long after its start; without,
    it runs one pass and no probe.
    """
    SCRATCH_DIR.mkdir(exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH_DIR))
    command = [
        sys.executable,
        str(BENCH_DIR / "workloads.py"),
        workload,
        "--seed",
        str(seed),
        "--store-dir",
        str(store_dir),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if traced:
        command.append("--traced")
    if smoke:
        command.append("--smoke")
    setup_s = None
    result = None
    start = time.perf_counter()
    try:
        with subprocess.Popen(
            command, cwd=ROOT, env=child_env(store_dir), stdout=subprocess.PIPE, text=True
        ) as proc:
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                for line in proc.stdout:
                    if line.startswith("READY"):
                        setup_s = time.perf_counter() - start
                    elif line.startswith("RESULT "):
                        result = json.loads(line[len("RESULT ") :])
            finally:
                watchdog.cancel()
                if proc.poll() is None and result is None:
                    proc.kill()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if proc.returncode != 0 or setup_s is None or result is None:
        raise BenchmarkError(f"{workload} child exited with {proc.returncode} without a result")
    result["setup_s"] = setup_s
    return result


def load_digests() -> dict:
    if DIGESTS_FILE.exists():
        return json.loads(DIGESTS_FILE.read_text())
    return {}


def operations(children: list[dict]):
    """Every operation record, child by child and pass by pass."""
    for child in children:
        for ops in child["passes"]:
            yield from ops


def count_failures(children: list[dict], pinned: dict | None) -> tuple[int, int, list[str]]:
    """Attempted / failed operations over every pass of every child.

    Beyond each operation's own checks, every pass must reproduce the same
    report digest per sub-run (same seed, same simulator), and on the
    default seed that digest must equal the pinned one.
    """
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    for op in operations(children):
        attempted += 1
        label = op["label"]
        error = op["error"]
        digest = op.get("digest")
        if error is None and digest is not None:
            expected = first.setdefault(label, digest)
            if digest != expected:
                error = f"{label}: report differs between passes of one seed"
            elif pinned is not None and pinned.get(label) != digest:
                error = f"{label}: report digest differs from the pinned one"
        if error is not None:
            failed += 1
            problems.append(error.strip().splitlines()[-1])
    return attempted, failed, problems


def scaled(host_s: float, probe_s: float) -> float:
    """Host seconds scaled to the reference host speed."""
    return host_s * REFERENCE_PROBE_S / probe_s


def end_to_end(children: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics, and the unscaled medians they came from.

    Each operation's time is the median of its scaled times over every
    pass; ``wall_s`` is their sum and each rate is requests offered (one
    per experiment on ``run-all-cold``) over the seconds of its operations.
    Failed operations are left out (they fail the run anyway).
    """
    scaled_s: dict[str, list[float]] = defaultdict(list)
    host_s: dict[str, list[float]] = defaultdict(list)
    offered: dict[str, int] = {}
    load: dict[str, str] = {}
    for op in operations(children):
        if op["error"] is None:
            label = op["label"]
            scaled_s[label].append(scaled(op["host_s"], op["probe_s"]))
            host_s[label].append(op["host_s"])
            offered[label] = op["offered"]
            load[label] = op["load"]
    seconds = {label: statistics.median(times) for label, times in scaled_s.items()}

    def rate(level: str | None = None) -> float:
        labels = [label for label in seconds if level in (None, load[label])]
        spent = sum(seconds[label] for label in labels)
        return sum(offered[label] for label in labels) / spent if spent > 0 else 0.0

    metrics = {
        "setup_s": statistics.median(scaled(c["setup_s"], c["setup_probe_s"]) for c in children),
        "wall_s": sum(seconds.values()),
        "req_per_s": rate(),
        "req_per_s.nominal": rate("nominal"),
        "req_per_s.overload": rate("overload"),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
    }
    unscaled = {
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "wall_s": sum(statistics.median(times) for times in host_s.values()),
        "probe_s": statistics.median(op["probe_s"] for op in operations(children)),
    }
    return metrics, unscaled


def measure(round_: Callable[[float], list[dict]], seconds: float, min_rounds: int) -> list[list[dict]]:
    """Rounds of fresh children, one after another, until ``seconds`` are spent.

    Each round is given an even share of the time left among the rounds
    still needed.  A round is not started when the mean round so far says
    it would end past ``seconds``, once ``min_rounds`` rounds are done.
    """
    rounds: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        rounds.append(round_(left / max(1, min_rounds - len(rounds))))
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (1 + 1 / len(rounds)) > seconds:
            return rounds


def traced_metrics(rounds: list[list[dict]]) -> dict[str, list]:
    """Layers of the median traced child, and the median tracing overhead.

    Each round is an untraced child followed by a traced one; the overhead
    is the median traced region time over the median untraced one.
    """
    untraced = statistics.median(r[0]["region_s"] for r in rounds)
    traced = sorted((r[1] for r in rounds), key=lambda child: child["region_s"])
    layers = dict(traced[(len(traced) - 1) // 2]["layers"])
    overhead = statistics.median(child["region_s"] for child in traced) / untraced
    layers["trace.overhead_ratio"] = [overhead, "ratio"]
    return layers


def print_table(rows: list[tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, no pinned digests")
    parser.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.pin and (args.smoke or args.seed != DEFAULT_SEED or args.trace):
        parser.error("--pin needs the default seed, full size and --trace 0")

    def round_(seconds: float) -> list[dict]:
        if not args.trace:
            return [spawn(args.workload, args.seed, args.smoke, seconds)]
        return [
            spawn(args.workload, args.seed, args.smoke),
            spawn(args.workload, args.seed, args.smoke, traced=True),
        ]

    try:
        rounds = measure(round_, args.seconds, 1 if args.trace else MIN_CHILDREN)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if SCRATCH_DIR.is_dir() and not any(SCRATCH_DIR.iterdir()):
            SCRATCH_DIR.rmdir()

    children = [child for r in rounds for child in r]
    digests = load_digests()
    pinned = None
    if args.pin:
        digests[args.workload] = {
            op["label"]: op["digest"] for op in children[0]["passes"][0] if op.get("digest")
        }
        DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    elif args.seed == DEFAULT_SEED and not args.smoke and args.workload in digests:
        pinned = digests[args.workload]
    attempted, failed, problems = count_failures(children, pinned)
    for problem in problems:
        print(f"FAILED {problem}")

    passes = sum(len(child["passes"]) for child in children)
    print(f"{args.workload}: {len(children)} processes, {passes} passes, seed {args.seed}")
    if args.trace:
        layers = traced_metrics(rounds)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        values, unscaled = end_to_end(children)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
        print(
            f"unscaled host time: setup_s {unscaled['setup_s']:.4g} s, wall_s"
            f" {unscaled['wall_s']:.4g} s; probe {unscaled['probe_s'] * 1e3:.4g} ms"
            f" (reference {REFERENCE_PROBE_S * 1e3:.4g} ms)"
        )
    print_table([(name, m["value"], m["unit"]) for name, m in metrics.items()])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
