"""Pin the JSON row keys of the serving and planning experiments.

Downstream consumers read these experiments' ``--format json`` rows by
key, so a key must not change by accident.  Each experiment runs with
quick parameters and its ``columns`` must equal the pinned list exactly,
order included.
"""

import pytest

from repro.experiments import run_experiment

#: Quick-turnaround overrides; the keys do not depend on the parameters.
QUICK = {
    "serve-latency-sla": {"rates": (10.0,), "duration_s": 4.0},
    "serve-fleet-mix": {"duration_s": 4.0},
    "serve-batch-policy": {"max_batches": (2,), "duration_s": 4.0},
    "serve-overload-sla": {"rates": (50.0,), "duration_s": 4.0},
    "serve-autoscale": {"duration_s": 8.0},
    "serve-quality-shed": {"depths": (4,), "duration_s": 4.0},
    "serve-flash-crowd": {"burst_rates": (60.0,), "duration_s": 6.0},
    "serve-multi-tenant": {"duration_s": 4.0},
    "serve-interactive": {"sessions": (4,), "frames": 10},
    "plan-frontier": {},
    "plan-capacity": {},
}

ROW_KEYS = {
    "serve-latency-sla": (
        "rate_rps", "num_requests", "p50_latency_ms", "p95_latency_ms",
        "p99_latency_ms", "goodput_rps", "sla_attainment",
        "energy_per_request_mj", "utilization",
    ),
    "serve-fleet-mix": (
        "fleet", "num_requests", "p50_latency_ms", "p95_latency_ms",
        "goodput_rps", "sla_attainment", "energy_per_request_mj", "utilization",
    ),
    "serve-batch-policy": (
        "policy", "mean_batch", "p50_latency_ms", "p95_latency_ms",
        "p99_latency_ms", "goodput_rps", "sla_attainment", "energy_per_request_mj",
    ),
    "serve-overload-sla": (
        "rate_rps", "mode", "num_requests", "completed", "rejected", "shed",
        "slo_attainment", "sla_attainment", "p95_latency_ms", "mean_quality",
        "goodput_rps",
    ),
    "serve-autoscale": (
        "policy", "num_requests", "sla_attainment", "p50_latency_ms",
        "p95_latency_ms", "peak_workers", "mean_workers", "goodput_rps",
    ),
    "serve-quality-shed": (
        "config", "completed", "shed_fraction", "slo_attainment",
        "sla_attainment", "p95_latency_ms", "mean_quality", "p05_quality",
        "goodput_rps",
    ),
    "serve-flash-crowd": (
        "burst_rps", "mode", "num_requests", "completed", "rejected", "shed",
        "slo_attainment", "p95_latency_ms", "mean_quality", "goodput_rps",
    ),
    "serve-multi-tenant": (
        "fleet", "tenant", "offered", "completed", "rejected",
        "slo_attainment", "p95_latency_ms", "mean_latency_ms",
    ),
    "serve-interactive": (
        "sessions", "mode", "frames", "completed", "missed", "slo_attainment",
        "p95_latency_ms", "mean_quality", "sessions_ok",
    ),
    "plan-frontier": (
        "fleet", "workers", "scheduler", "control", "cost_per_mreq",
        "p99_latency_ms", "energy_per_request_mj", "slo_attainment",
    ),
    "plan-capacity": (
        "sla_ms", "fleet", "scheduler", "control", "cost_per_mreq",
        "p99_latency_ms", "slo_attainment",
    ),
}


@pytest.mark.parametrize("exp_id", sorted(ROW_KEYS))
def test_row_keys_are_pinned(exp_id):
    result = run_experiment(exp_id, **QUICK[exp_id])
    assert result.rows, f"{exp_id} produced no rows"
    assert result.columns == ROW_KEYS[exp_id]
    assert all(tuple(row) == ROW_KEYS[exp_id] for row in result.rows)
