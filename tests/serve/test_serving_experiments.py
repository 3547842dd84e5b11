"""End-to-end tests for the serve-* experiments and their determinism.

The acceptance bar for the serving layer: `repro run tag:serving` executes
every serving experiment, and the reference Poisson mix's p50/p95/p99 are
reproducible across repeated runs and across `--jobs` settings.
"""

import json

import pytest

from repro.experiments import (
    EXPERIMENTS,
    experiments_by_tag,
    get_experiment,
    run_experiment,
)
from repro.experiments.cli import main, run_many

SERVING_IDS = (
    "serve-latency-sla",
    "serve-fleet-mix",
    "serve-batch-policy",
    "serve-overload-sla",
    "serve-autoscale",
    "serve-quality-shed",
    "serve-flash-crowd",
    "serve-multi-tenant",
    "serve-interactive",
)

#: Quick-turnaround overrides so the determinism tests stay snappy.
QUICK = {
    "serve-latency-sla": {"rates": (10.0, 25.0), "duration_s": 10.0},
    "serve-fleet-mix": {"duration_s": 10.0},
    "serve-batch-policy": {"max_batches": (1, 8), "duration_s": 10.0},
    "serve-overload-sla": {"rates": (20.0, 50.0), "duration_s": 8.0},
    "serve-autoscale": {"duration_s": 20.0},
    "serve-quality-shed": {"depths": (8, 2), "duration_s": 8.0},
    "serve-flash-crowd": {"burst_rates": (60.0,), "duration_s": 8.0},
    "serve-multi-tenant": {"duration_s": 8.0},
    "serve-interactive": {"sessions": (4, 10), "frames": 25},
}


def _tail_metrics(result):
    """The latency/goodput numbers a regression would disturb."""
    return [
        {
            key: row[key]
            for key in row
            if key.endswith("_ms") or key in ("goodput_rps", "sla_attainment")
        }
        for row in result.rows
    ]


class TestRegistration:
    def test_serving_tag_selects_all_nine(self):
        assert [e.id for e in experiments_by_tag("serving")] == list(SERVING_IDS)

    @pytest.mark.parametrize("exp_id", SERVING_IDS)
    def test_registered_with_typed_params(self, exp_id):
        exp = EXPERIMENTS[exp_id]
        assert exp.params, f"{exp_id} should expose typed parameters"
        assert {"seed"} <= {p.name for p in exp.params}


class TestDeterminism:
    @pytest.mark.parametrize("exp_id", SERVING_IDS)
    def test_repeated_runs_are_identical(self, exp_id):
        first = run_experiment(exp_id, **QUICK[exp_id])
        second = run_experiment(exp_id, **QUICK[exp_id])
        assert first.rows == second.rows  # bit-identical percentiles et al.

    def test_results_identical_across_jobs_settings(self):
        experiments = [get_experiment(exp_id) for exp_id in SERVING_IDS]
        overrides = {exp_id: dict(QUICK[exp_id]) for exp_id in SERVING_IDS}
        serial = run_many(experiments, overrides, jobs=1)
        threaded = run_many(experiments, overrides, jobs=3)
        for a, b in zip(serial, threaded):
            assert a.rows == b.rows

    def test_reference_poisson_mix_percentiles_are_pinned(self):
        """Reference run: exact reproducibility contract for the paper mix.

        The values themselves are asserted self-consistent (monotone in
        load) rather than hard-coded; exact reproducibility is covered by
        comparing two independent executions, including fresh engines.
        """
        result = run_experiment("serve-latency-sla", rates=(10.0, 20.0, 30.0))
        rows = result.rows
        assert [p["rate_rps"] for p in rows] == [10.0, 20.0, 30.0]
        for lo, hi in zip(rows, rows[1:]):
            assert hi["p95_latency_ms"] >= lo["p95_latency_ms"]
        # Saturation: past the knee goodput collapses below the offered rate.
        assert rows[-1]["goodput_rps"] < rows[-1]["rate_rps"] * 0.5
        again = run_experiment("serve-latency-sla", rates=(10.0, 20.0, 30.0))
        assert result.rows == again.rows


class TestOverloadControl:
    """Acceptance bar for the overload-control PR.

    At >=2x a single device's capacity, admission control and quality
    shedding must each *strictly* improve SLO attainment over the
    uncontrolled baseline -- the headline claim of ``serve-overload-sla``.
    """

    def test_each_mechanism_strictly_improves_slo_at_2x_overload(self):
        result = run_experiment("serve-overload-sla", rates=(50.0,))
        by_mode = {point["mode"]: point for point in result.rows}
        baseline = by_mode["none"]["slo_attainment"]
        for mode in ("queue-cap", "token-bucket", "shed", "cap+shed"):
            assert by_mode[mode]["slo_attainment"] > baseline, mode
        # Shedding keeps everyone: it buys attainment with quality, not
        # rejections, so quality drops below the baseline's 1.0 instead.
        assert by_mode["shed"]["rejected"] == 0
        assert by_mode["shed"]["shed"] > 0
        assert by_mode["shed"]["mean_quality"] < by_mode["none"]["mean_quality"]
        # Admission keeps full quality and turns the excess away instead.
        assert by_mode["queue-cap"]["rejected"] > 0
        assert by_mode["queue-cap"]["mean_quality"] == 1.0
        # Offered requests are conserved in every mode.
        for point in result.rows:
            assert point["completed"] + point["rejected"] == point["num_requests"]


class TestAutoscalePools:
    def test_each_static_pool_size_is_served_once(self):
        result = run_experiment("serve-autoscale", pool=1, duration_s=8.0)
        policies = [row["policy"] for row in result.rows]
        assert policies == ["static-1", "queue-depth", "latency-target"]


class TestScenarioLibrary:
    """Acceptance bar for the scenario-library experiments (this PR).

    Each new stream must *matter*: the study built on it has to show the
    effect the stream was designed to expose, not just run to completion.
    """

    def test_flash_crowd_control_rescues_burst_slo(self):
        result = run_experiment("serve-flash-crowd")
        by_cell = {(p["burst_rps"], p["mode"]): p for p in result.rows}
        for burst in {p["burst_rps"] for p in result.rows}:
            none = by_cell[(burst, "none")]
            shed = by_cell[(burst, "shed")]
            assert shed["slo_attainment"] > none["slo_attainment"], burst
            assert shed["mean_quality"] < 1.0  # attainment was bought with quality

    def test_multi_tenant_breaks_per_tenant_not_fleet_wide(self):
        result = run_experiment("serve-multi-tenant")
        by_cell = {(p["fleet"], p["tenant"]): p for p in result.rows}
        small, big = "flexnerfer", "flexnerfer+neurex"
        # The undersized fleet fails the tight-SLA tenant specifically...
        assert by_cell[(small, "interactive")]["slo_attainment"] < 0.5
        # ...while the relaxed-SLA batch tenant still looks healthy.
        assert by_cell[(small, "batch")]["slo_attainment"] > 0.8
        # Adding the second device repairs every tenant's attainment.
        assert by_cell[(big, "interactive")]["slo_attainment"] > 0.8
        for tenant in ("batch", "free"):
            assert by_cell[(big, tenant)]["slo_attainment"] > 0.95, tenant

    def test_interactive_shedding_needs_the_degradable_flag(self):
        result = run_experiment("serve-interactive", sessions=(8,))
        by_mode = {p["mode"]: p for p in result.rows}
        # Shedding rescues overloaded sessions...
        assert by_mode["shed"]["slo_attainment"] > by_mode["none"]["slo_attainment"]
        assert by_mode["shed"]["sessions_ok"] > by_mode["none"]["sessions_ok"]
        # ...but only because the frames are degradable: pinning them
        # disarms the ladder and the collapse matches the uncontrolled run.
        assert by_mode["shed+pinned"]["slo_attainment"] == pytest.approx(
            by_mode["none"]["slo_attainment"]
        )
        assert by_mode["shed+pinned"]["mean_quality"] == 1.0


class TestCLI:
    def test_run_tag_serving_json(self, capsys):
        code = main(
            [
                "run",
                "tag:serving",
                "--format",
                "json",
                "--duration-s",
                "8",
                "--rates",
                "10,25",
                "--max-batches",
                "1,8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert [entry["experiment_id"] for entry in payload] == list(SERVING_IDS)
        for entry in payload:
            assert entry["rows"], f"{entry['experiment_id']} produced no rows"

    def test_seed_flag_changes_the_stream(self):
        base = run_experiment("serve-latency-sla", **QUICK["serve-latency-sla"])
        moved = run_experiment(
            "serve-latency-sla", seed=7, **QUICK["serve-latency-sla"]
        )
        assert base.rows != moved.rows

    def test_unknown_device_is_a_one_line_cli_error(self, capsys):
        code = main(["run", "serve-latency-sla", "--device", "nope"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "unknown device" in err

    def test_fleet_specs_validate(self, capsys):
        code = main(["run", "serve-fleet-mix", "--fleets", "flexnerfer+bogus"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown device" in err


def test_tail_metrics_probe_covers_every_experiment():
    for exp_id in SERVING_IDS:
        result = run_experiment(exp_id, **QUICK[exp_id])
        metrics = _tail_metrics(result)
        assert metrics and all(metrics[0].keys())
