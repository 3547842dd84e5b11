"""Performance infrastructure: the persistent result store and the bench harness.

Two concerns live here, both documented in ``docs/performance.md``:

* :mod:`repro.perf.store` -- a content-addressed on-disk cache of whole
  experiment results, evaluated capacity-plan points and fitted hash-grid
  assets, partitioned by the package's source digest, so a warm ``repro
  run all`` replays every experiment without simulating.
* :mod:`repro.perf.bench` -- the ``repro bench`` measurement harness: cold
  vs. memory-warm sweep timing, per-experiment wall time, fleet-simulator
  throughput and hot-path microbenchmarks, emitted as a schema-versioned
  ``BENCH_<rev>.json`` trajectory point.
"""
