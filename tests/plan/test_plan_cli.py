"""CLI surface of ``repro plan``: error paths, formats, warm replay.

Error paths follow the pinned-exit-code pattern of
``tests/experiments/test_cli.py``: status 2 and a one-line ``error:``
message, never a traceback.  The replay class pins that a warm
``repro plan`` re-run is byte-identical (modulo wall-time provenance) to
the cold run, with zero re-evaluations on the warm store.
"""

import json

import pytest

from repro.experiments.cli import main

from tests._differential import assert_text_matches_modulo_wall_time


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, name="custom.json", **overrides):
    spec = {
        "devices": ["flexnerfer", "neurex"],
        "worker_counts": [1],
        "traffic": {"rate_rps": 20.0, "duration_s": 1.0, "sla_ms": 100.0},
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return path


class TestErrorPaths:
    """Every user mistake exits 2 with a one-line error (no tracebacks)."""

    def assert_one_liner(self, code, err, fragment):
        assert code == 2
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert fragment in err

    def test_unknown_spec(self, capsys):
        code, _, err = run_cli(capsys, "plan", "nope", "--no-store")
        self.assert_one_liner(code, err, "unknown plan spec 'nope'")

    def test_unknown_device_in_spec_file(self, capsys, tmp_path):
        path = write_spec(tmp_path, devices=["flexnerfer", "warpdrive"])
        code, _, err = run_cli(capsys, "plan", str(path), "--no-store")
        self.assert_one_liner(code, err, "unknown device 'warpdrive'")

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"worker_counts": [1, 1.9]}, "worker counts must be >= 1"),
            ({"worker_counts": [1, 1]}, "duplicate worker counts"),
            ({"worker_counts": [True]}, "worker counts must be >= 1"),
            (
                {"traffic": {"rate_rps": 20.0, "duration_s": 1.0, "sla_ms": 100.0, "seed": 0.7}},
                "seed must be >= 0",
            ),
        ],
        ids=["fractional-count", "repeated-count", "bool-count", "fractional-seed"],
    )
    def test_counts_are_not_truncated(self, capsys, monkeypatch, tmp_path, overrides, fragment):
        def evaluate_space(*args, **kwargs):
            raise AssertionError("the space was evaluated")

        monkeypatch.setattr("repro.plan.evaluate_space", evaluate_space)
        path = write_spec(tmp_path, devices=["flexnerfer"], **overrides)
        code, out, err = run_cli(capsys, "plan", str(path), "--no-store")
        self.assert_one_liner(code, err, fragment)
        assert out == ""

    def test_infeasible_constraint(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--no-store", "--sla-ms", "0.001"
        )
        self.assert_one_liner(code, err, "infeasible constraint")
        assert "p99 <= 0.001 ms" in err

    @pytest.mark.parametrize("sla_ms", ["nan", "inf", "0", "-1"])
    def test_bad_sla_is_rejected_before_evaluation(self, capsys, monkeypatch, sla_ms):
        def evaluate_space(*args, **kwargs):
            raise AssertionError("the space was evaluated")

        monkeypatch.setattr("repro.plan.evaluate_space", evaluate_space)
        code, out, err = run_cli(
            capsys, "plan", "tiny", "--no-store", "--sla-ms", sla_ms
        )
        self.assert_one_liner(code, err, "--sla-ms")
        assert out == ""

    def test_missing_spec_operand(self, capsys):
        code, _, err = run_cli(capsys, "plan")
        self.assert_one_liner(code, err, "exactly one plan spec")

    def test_bad_format(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--no-store", "--format", "xml"
        )
        self.assert_one_liner(code, err, "invalid format 'xml'")

    def test_bad_min_attainment(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--no-store", "--min-attainment", "1.5"
        )
        self.assert_one_liner(code, err, "--min-attainment must be in [0, 1]")

    def test_store_flag_conflicts(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--no-store", "--store", str(tmp_path / "s")
        )
        self.assert_one_liner(code, err, "mutually exclusive")

    def test_unknown_option(self, capsys):
        code, _, err = run_cli(capsys, "plan", "tiny", "--frobnicate", "1")
        self.assert_one_liner(code, err, "unknown option '--frobnicate'")


class TestOutputs:
    def test_table_output_lists_frontier(self, capsys):
        code, out, err = run_cli(capsys, "plan", "tiny", "--no-store")
        assert code == 0 and err == ""
        assert "plan tiny: 5 points evaluated (5 fresh, 0 cached)" in out
        assert "frontier" in out and "$/Mreq" in out
        assert "flexnerfer" in out

    def test_json_output_structure(self, capsys, tmp_path):
        out_path = tmp_path / "plan.json"
        code, out, _ = run_cli(
            capsys, "plan", "tiny", "--no-store", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["spec"] == "tiny"
        assert document["evaluated"] == 5 and "enumerated" not in document
        assert document["objectives"] == [
            "cost_per_request",
            "p99_latency_s",
            "energy_per_request_j",
        ]
        assert document["frontier"], "serial run must emit a nonempty frontier"
        assert document["constraint"] is None
        assert "wall_time_s" in document["provenance"]

    def test_csv_output_has_header_and_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "tiny", "--no-store", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        header = [l for l in lines if l.startswith("fleet,scheduler,control")]
        assert len(header) == 1
        assert "cost_per_request" in header[0]
        assert "traffic" in header[0]
        assert len(lines) > lines.index(header[0]) + 1, "no data rows"

    def test_multi_shape_spec_evaluates_every_shape(self, capsys, tmp_path):
        path = write_spec(
            tmp_path,
            devices=["flexnerfer"],
            traffic_shapes=["poisson", "flash-crowd", "marked-burst"],
        )
        out_path = tmp_path / "shaped-plan.json"
        code, _, _ = run_cli(
            capsys, "plan", str(path), "--no-store", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["evaluated"] == 3
        assert document["space"]["traffic_shapes"] == [
            "poisson",
            "flash-crowd",
            "marked-burst",
        ]
        shapes = {row["traffic"] for row in document["frontier"]}
        assert shapes <= {"poisson", "flash-crowd", "marked-burst"}
        assert document["frontier"], "multi-shape run must emit a frontier"

    def test_constraint_solution_rendered(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "tiny", "--no-store", "--sla-ms", "120",
            "--min-attainment", "0.9",
        )
        assert code == 0
        assert "cheapest feasible:" in out


class TestWarmReplay:
    """A warm plan replays the cold plan byte-exactly, re-evaluating nothing."""

    def plan(self, capsys, *argv):
        code, out, err = run_cli(capsys, "plan", *argv)
        assert code == 0, err
        return out

    def test_warm_replay_matches_cold_run(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        cold_json = tmp_path / "cold.json"
        out = self.plan(
            capsys, "tiny", "--store", store,
            "--format", "json", "--out", str(cold_json),
        )
        assert "(5 fresh, 0 cached)" in out

        warm_json = tmp_path / "warm.json"
        out = self.plan(
            capsys, "tiny", "--store", store,
            "--format", "json", "--out", str(warm_json),
            "--check", str(cold_json),
        )
        # Zero re-evaluations on the warm store...
        assert "(0 fresh, 5 cached)" in out
        assert f"plan output matches {cold_json}" in out
        # ...and byte-identical output modulo the wall-time provenance.
        assert_text_matches_modulo_wall_time(
            cold_json.read_text(), warm_json.read_text()
        )

    def test_check_flags_divergent_reference(self, capsys, tmp_path):
        serial_json = tmp_path / "serial.json"
        store = str(tmp_path / "store")
        self.plan(
            capsys, "tiny", "--store", store,
            "--format", "json", "--out", str(serial_json),
        )
        doctored = serial_json.read_text().replace('"tiny"', '"tinier"')
        serial_json.write_text(doctored)
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--store", store,
            "--format", "json", "--check", str(serial_json),
        )
        assert code == 1
        assert "differs" in err

    def test_check_missing_reference(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "plan", "tiny", "--no-store",
            "--format", "json", "--check", str(tmp_path / "absent.json"),
        )
        assert code == 1
        assert "missing reference file" in err


class TestExperimentSurface:
    def test_plan_experiments_registered_with_planning_tag(self):
        from repro.experiments.registry import EXPERIMENTS, experiments_by_tag

        assert "plan-frontier" in EXPERIMENTS
        assert "plan-capacity" in EXPERIMENTS
        tagged = {e.id for e in experiments_by_tag("planning")}
        assert {"plan-frontier", "plan-capacity"} <= tagged

    def test_usage_screen_documents_plan(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "plan" in out and "--sla-ms" in out


@pytest.fixture(autouse=True)
def _quiet_env(monkeypatch, tmp_path):
    """Default-store fallbacks land in the test's tmp dir, never the repo."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "default-store"))
