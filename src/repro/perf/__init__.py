"""Performance infrastructure: the persistent result store and the bench harness.

Two concerns live here, both documented in ``docs/performance.md``:

* :mod:`repro.perf.store` -- a content-addressed on-disk cache of frame
  simulations, keyed by (device fingerprint, workload digest, effective
  knobs, store schema version).  The :class:`~repro.sim.sweep.SweepEngine`
  reads through it transparently, so a warm ``repro run all`` (and every
  :class:`~repro.serve.fleet.FleetSimulator` study) skips cycle-level
  simulation entirely.
* :mod:`repro.perf.bench` -- the ``repro bench`` measurement harness: cold
  vs. warm sweep timing, per-experiment wall time, fleet-simulator
  throughput and hot-path microbenchmarks, emitted as a schema-versioned
  ``BENCH_<rev>.json`` trajectory point.
* :mod:`repro.perf.distributed` -- deterministic sharding of experiment
  sets and plan spaces by store cache key, plus pack-and-merge assembly: the
  machinery behind ``repro shard`` / ``repro assemble`` and the CI shard
  matrix (``docs/distributed.md``).
"""

from repro.perf.store import (
    PACK_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    ExperimentResultKey,
    MergeStats,
    PackConflictError,
    PlanPointKey,
    ResultStore,
    StoreKey,
    device_registry_digest,
    environment_digest,
    model_registry_digest,
)
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    compare_bench,
    run_bench,
    validate_bench,
)
from repro.perf.distributed import (
    Shard,
    assemble_packs,
    shard_experiments,
    shard_index,
)

__all__ = [
    "PACK_SCHEMA_VERSION",
    "STORE_SCHEMA_VERSION",
    "ExperimentResultKey",
    "MergeStats",
    "PackConflictError",
    "PlanPointKey",
    "ResultStore",
    "StoreKey",
    "device_registry_digest",
    "environment_digest",
    "model_registry_digest",
    "BENCH_SCHEMA_VERSION",
    "compare_bench",
    "run_bench",
    "validate_bench",
    "Shard",
    "assemble_packs",
    "shard_experiments",
    "shard_index",
]
