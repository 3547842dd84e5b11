"""Benchmarks regenerating the serving studies (`serve-*` experiments)."""

from bench_utils import emit, run_once

from repro.experiments import get_experiment


def test_serve_latency_sla(benchmark):
    result = run_once(benchmark, get_experiment("serve-latency-sla").run)
    emit("Serving - tail latency / goodput vs offered load", result.to_table())
    points = result.rows
    # Tail latency grows monotonically with offered load...
    p95 = [p["p95_latency_ms"] for p in points]
    assert p95 == sorted(p95)
    # ...and the saturated point misses far more SLAs than the light one.
    assert points[0]["sla_attainment"] > points[-1]["sla_attainment"]


def test_serve_fleet_mix(benchmark):
    result = run_once(benchmark, get_experiment("serve-fleet-mix").run)
    emit("Serving - fleet compositions under diurnal load", result.to_table())
    by_fleet = {p["fleet"]: p for p in result.rows}
    flex2 = by_fleet["flexnerfer+flexnerfer"]
    mixed = by_fleet["flexnerfer+neurex"]
    neurex2 = by_fleet["neurex+neurex"]
    # All-FlexNeRFer dominates; the mixed fleet recovers most of the gap
    # because the router steers sparsity-friendly scenarios appropriately.
    assert flex2["p95_latency_ms"] < mixed["p95_latency_ms"] < neurex2["p95_latency_ms"]
    assert flex2["sla_attainment"] >= mixed["sla_attainment"] > neurex2["sla_attainment"]


def test_serve_batch_policy(benchmark):
    result = run_once(benchmark, get_experiment("serve-batch-policy").run)
    emit("Serving - FIFO vs batch-up-to-deadline", result.to_table())
    by_policy = {p["policy"]: p for p in result.rows}
    fifo = by_policy["fifo"]
    batch8 = by_policy["batch-8"]
    # Batching rescues an overloaded device: order-of-magnitude tail win,
    # higher goodput, cheaper requests.
    assert batch8["p95_latency_ms"] < fifo["p95_latency_ms"] / 5
    assert batch8["goodput_rps"] > fifo["goodput_rps"]
    assert batch8["energy_per_request_mj"] < fifo["energy_per_request_mj"]
    # max_batch=1 degenerates to FIFO exactly (same stream, same device).
    assert by_policy["batch-1"]["p95_latency_ms"] == fifo["p95_latency_ms"]


def test_serve_overload_sla(benchmark):
    result = run_once(benchmark, get_experiment("serve-overload-sla").run)
    emit("Serving - overload control: SLO attainment per mechanism", result.to_table())
    overloaded = [p for p in result.rows if p["rate_rps"] >= 50.0]
    by_mode = {(p["rate_rps"], p["mode"]): p for p in result.rows}
    # At every overloaded rate, each control mechanism strictly beats the
    # uncontrolled baseline on SLO attainment (rejections count as misses).
    for point in overloaded:
        if point["mode"] == "none":
            continue
        baseline = by_mode[(point["rate_rps"], "none")]
        assert point["slo_attainment"] > baseline["slo_attainment"]
    # Shedding trades quality, admission trades completions.
    shed = by_mode[(50.0, "shed")]
    cap = by_mode[(50.0, "queue-cap")]
    assert shed["rejected"] == 0 and shed["mean_quality"] < 1.0
    assert cap["rejected"] > 0 and cap["mean_quality"] == 1.0


def test_serve_autoscale(benchmark):
    result = run_once(benchmark, get_experiment("serve-autoscale").run)
    emit("Serving - autoscaling policies vs static pools", result.to_table())
    by_policy = {p["policy"]: p for p in result.rows}
    static1 = by_policy["static-1"]
    static6 = by_policy["static-6"]
    queue = by_policy["queue-depth"]
    # The autoscaler lands between the static extremes: far better SLA than
    # one device, at a fraction of the full pool's provisioned capacity.
    assert queue["sla_attainment"] > static1["sla_attainment"] * 5
    assert queue["mean_workers"] < static6["mean_workers"] / 2
    assert static1["mean_workers"] <= queue["mean_workers"] <= static6["mean_workers"]


def test_serve_quality_shed(benchmark):
    result = run_once(benchmark, get_experiment("serve-quality-shed").run)
    emit("Serving - quality shedding: attainment vs quality", result.to_table())
    by_config = {p["config"]: p for p in result.rows}
    none = by_config["none"]
    timid = by_config["shed/16"]
    aggressive = by_config["shed/2"]
    # Shedding harder monotonically buys attainment and spends quality.
    assert (
        aggressive["slo_attainment"] > timid["slo_attainment"] > none["slo_attainment"]
    )
    assert aggressive["mean_quality"] < timid["mean_quality"] <= none["mean_quality"]
    assert aggressive["p05_quality"] < none["p05_quality"]
