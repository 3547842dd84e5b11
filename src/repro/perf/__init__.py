"""Performance infrastructure: the persistent result store and the bench harness.

Two concerns live here, both documented in ``docs/performance.md``:

* :mod:`repro.perf.store` -- a content-addressed on-disk cache of frame
  simulations, keyed by (device fingerprint, workload digest, effective
  knobs) and partitioned by the package's source digest.  The
  :class:`~repro.sim.sweep.SweepEngine` reads through it transparently, so
  a warm ``repro run all`` (and every
  :class:`~repro.serve.fleet.FleetSimulator` study) skips cycle-level
  simulation entirely.
* :mod:`repro.perf.bench` -- the ``repro bench`` measurement harness: cold
  vs. warm sweep timing, per-experiment wall time, fleet-simulator
  throughput and hot-path microbenchmarks, emitted as a schema-versioned
  ``BENCH_<rev>.json`` trajectory point.
"""
