"""Tests for the ``repro`` CLI: selection, formats, artifacts, exit codes."""

import json

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.cli import COMMANDS, _parse, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _detach_default_store():
    """CLI runs attach the result store to the shared engine; detach after
    each test so other modules keep exercising the pure in-memory path."""
    yield
    from repro.sim.sweep import get_default_engine

    get_default_engine().attach_store(None)


class TestList:
    def test_lists_every_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for key in EXPERIMENTS:
            assert key in out

    def test_tag_filter(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--tags", "frame-sim")
        assert code == 0
        assert "fig19" in out
        assert "table02" not in out

    def test_unknown_tag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "list", "--tags", "nope")
        assert code == 2
        assert err.startswith("error:") and "valid" in err

    def test_json_listing_exposes_param_schema(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--format", "json")
        assert code == 0
        entries = {entry["id"]: entry for entry in json.loads(out)}
        fig19 = entries["fig19"]
        flags = {param["flag"] for param in fig19["params"]}
        assert flags == {"--models", "--pruning-ratios"}

    def test_help(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "usage" in out


class TestRunErrors:
    def test_unknown_id_exits_2_listing_valid_ids(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig99")
        assert code == 2
        assert err.count("\n") == 1  # one line, not a traceback
        assert "unknown experiment 'fig99'" in err
        assert "fig01" in err and "ablation-noc" in err

    def test_bad_param_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig19", "--pruning-ratios", "0,zap")
        assert code == 2
        assert err.count("\n") == 1
        assert "--pruning-ratios" in err

    def test_unknown_param_flag_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig06", "--bogus", "1")
        assert code == 2
        assert "unknown parameter '--bogus'" in err

    def test_unknown_tag_selector_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "tag:nope")
        assert code == 2
        assert "valid tags" in err

    def test_no_selection_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 2

    def test_bad_format_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig06", "--format", "xml")
        assert code == 2
        assert "invalid format" in err

    def test_well_typed_but_invalid_value_exits_2(self, capsys):
        # -4 parses as an int; the experiment itself rejects it at run time.
        code, _, err = run_cli(capsys, "run", "fig06", "--rows", "-4")
        assert code == 2
        assert err.count("\n") == 1  # one line, not a traceback
        assert err.startswith("error: fig06:")

    def test_out_of_range_pruning_ratio_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "run", "fig19", "--pruning-ratios", "0,-0.5")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: fig19: pruning ratio must be in [0, 1)")

    def test_unknown_scene_value_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig13", "--scenes", "nope")
        assert code == 2
        assert err.count("\n") == 1
        assert "unknown scene" in err

    def test_zero_batch_size_exits_2(self, capsys):
        # Batch 0 used to be replaced by the default and surface as a KeyError.
        code, out, err = run_cli(capsys, "run", "fig20b", "--batch-sizes", "0")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: fig20b: batch_size must be >= 1")

    @pytest.mark.parametrize("target", ["nan", "0", "-25"])
    def test_bad_sla_target_exits_2(self, capsys, target):
        code, out, err = run_cli(
            capsys, "run", "plan-capacity", "--sla-ladder-ms", f"50,{target}"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(
            "error: plan-capacity: sla_ladder_ms must be positive and finite"
        )


class TestRun:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig06")
        assert code == 0
        assert "===== fig06:" in out
        assert "INT16" in out

    def test_param_flags_reach_the_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig06", "--rows", "32", "--cols", "32")
        assert code == 0
        assert "32x32" in out

    def test_json_output_is_parseable(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig04", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["experiment_id"] == "fig04"
        assert payload[0]["provenance"]["params"] == {}

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig04", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("scenario")

    def test_infeasible_capacity_target_is_strict_json(self, capsys):
        # A 1 ms target has no feasible fleet; its cost and p99 used to be
        # NaN, which the JSON output wrote as bare (invalid) NaN tokens.
        argv = ("run", "plan-capacity", "--sla-ladder-ms", "1,50", "--no-store")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        infeasible, feasible = json.loads(out, parse_constant=reject)[0]["rows"]
        assert infeasible["fleet"] == "(infeasible)"
        assert infeasible["cost_per_mreq"] is None
        assert infeasible["p99_latency_ms"] is None
        assert feasible["cost_per_mreq"] > 0.0
        code, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[2] == "1.0,(infeasible),-,-,,,0.0"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        cells = out.splitlines()[2].split()
        assert cells == ["1.0", "(infeasible)", "-", "-", "-", "-", "0.0"]

    def test_tag_selector_runs_group(self, capsys):
        code, out, _ = run_cli(capsys, "run", "tag:formats", "--format", "json")
        assert code == 0
        ids = [entry["experiment_id"] for entry in json.loads(out)]
        assert ids == ["fig07", "fig08"]

    def test_legacy_invocation_styles(self, capsys):
        code, out, _ = run_cli(capsys, "fig06")
        assert code == 0
        assert "===== fig06:" in out

    def test_out_dir_writes_artifacts(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "run", "fig04", "table02", "--format", "json",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "fig04.json", "table02.json",
        ]
        data = json.loads((tmp_path / "fig04.json").read_text())
        assert data["columns"]

    def test_jobs_flag_produces_same_tables(self, capsys):
        _, serial_out, _ = run_cli(capsys, "run", "fig04", "fig06", "table02")
        code, parallel_out, _ = run_cli(
            capsys, "run", "fig04", "fig06", "table02", "--jobs", "3"
        )
        assert code == 0

        def tables(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("=====")  # headers carry wall times
            ]

        assert tables(parallel_out) == tables(serial_out)


def _entry_kinds(store_root):
    """Entry kinds (``result``, ``plan``, ``asset``) present in a store."""
    from repro.perf.store import code_digest

    partition = store_root / code_digest()[:16]
    return {path.parent.parent.name for path in partition.rglob("*.json")}


class TestStoreFlags:
    def test_run_attaches_the_default_store(self, capsys, monkeypatch, tmp_path):
        from repro.sim.sweep import get_default_engine

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        get_default_engine().clear()
        code, _, _ = run_cli(capsys, "run", "fig01")
        assert code == 0
        engine = get_default_engine()
        assert engine.store is not None
        assert engine.store.root == tmp_path
        # The result was persisted; its frame simulations stay in memory.
        assert engine.store.stats().entries == 1
        assert _entry_kinds(tmp_path) == {"result"}

    def test_no_store_detaches(self, capsys):
        from repro.sim.sweep import get_default_engine

        code, _, _ = run_cli(capsys, "run", "fig04", "--no-store")
        assert code == 0
        assert get_default_engine().store is None

    def test_warm_run_replays_byte_identical_output(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        code, cold_out, _ = run_cli(capsys, "run", "fig04", "fig06", "fig12")
        assert code == 0
        code, warm_out, _ = run_cli(capsys, "run", "fig04", "fig06", "fig12")
        assert code == 0
        # Includes the `===== id: title (Xs) =====` headers: cached results
        # keep the producing run's provenance, so even wall times match.
        assert warm_out == cold_out

    def test_param_override_misses_the_result_cache(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        code, default_out, _ = run_cli(capsys, "run", "fig06")
        assert code == 0
        code, overridden_out, _ = run_cli(
            capsys, "run", "fig06", "--rows", "32", "--cols", "32"
        )
        assert code == 0
        assert "32x32" in overridden_out
        assert overridden_out != default_out

    @pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
    def test_warm_json_artifacts_match_cold(
        self, capsys, monkeypatch, tmp_path, exp_id
    ):
        # A warm run replays the cold one from the result tier, byte for
        # byte (wall time included), without re-running the experiment.
        from repro.experiments.api import Experiment

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
        code, _, err = run_cli(
            capsys, "run", exp_id, "--format", "json", "--out", str(cold_dir)
        )
        assert code == 0, err
        # The store keeps results, plan points and fitted grids only.
        assert "result" in _entry_kinds(tmp_path / "store")
        assert _entry_kinds(tmp_path / "store") <= {"asset", "plan", "result"}

        def recompute(self, **params):
            raise AssertionError(f"warm replay re-ran {self.id}")

        monkeypatch.setattr(Experiment, "run", recompute)
        code, _, err = run_cli(
            capsys, "run", exp_id, "--format", "json", "--out", str(warm_dir)
        )
        assert code == 0, err
        assert (
            (cold_dir / f"{exp_id}.json").read_text()
            == (warm_dir / f"{exp_id}.json").read_text()
        )


def _fig03_gemm_doubled(capsys, monkeypatch, store_dir):
    """Cold ``fig03`` into the store, then a source edit doubling its GEMM share."""
    from repro.experiments import fig03_runtime_breakdown as fig03

    code, out, err = run_cli(capsys, "run", "fig03", "--format", "csv")
    assert code == 0, err
    model, gemm = out.splitlines()[2].split(",")[:2]
    row = fig03.BreakdownRow
    monkeypatch.setattr(
        fig03,
        "BreakdownRow",
        lambda gemm_fraction, **rest: row(gemm_fraction=2 * gemm_fraction, **rest),
    )
    return ("run", "fig03", "--format", "csv"), 0, f"{model},{2 * float(gemm)!r},"


def _plan_capacity_nan(capsys, monkeypatch, store_dir):
    """A ``nan (infeasible)`` row stored before the SLA-ladder guard existed."""
    from repro.perf.store import ResultStore, experiment_result_key

    exp = EXPERIMENTS["plan-capacity"]
    [param] = [p for p in exp.params if p.name == "sla_ladder_ms"]
    key = experiment_result_key(exp, {param.name: param.parse("nan")})
    result = {
        "experiment_id": exp.id,
        "title": exp.title,
        "columns": ["sla_ms", "fleet"],
        "rows": [{"sla_ms": None, "fleet": "(infeasible)"}],
        "provenance": {
            "experiment_id": exp.id,
            "params": {},
            "config_fingerprint": key.params_fingerprint,
            "wall_time_s": 0.0,
            "repo_version": "0",
        },
    }
    ResultStore(store_dir).put(
        key, {"result": result, "table": "     nan (infeasible)"}
    )
    return (
        ("run", "plan-capacity", "--sla-ladder-ms", "nan"),
        2,
        "error: plan-capacity: sla_ladder_ms must be positive and finite",
    )


class TestStaleReplay:
    """An entry written by other code is never replayed.

    Each case fills the store under code digest A, then runs under digest
    B: a store keyed on parameters alone printed the old output.
    """

    @pytest.mark.parametrize(
        "seed",
        [_fig03_gemm_doubled, _plan_capacity_nan],
        ids=["fig03-edit", "plan-capacity-nan"],
    )
    def test_source_edit_misses_the_result_tier(
        self, capsys, monkeypatch, tmp_path, use_code_digest, seed
    ):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        use_code_digest("a" * 64)
        argv, expected_code, expected = seed(capsys, monkeypatch, tmp_path)
        use_code_digest("b" * 64)
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code, err
        if code == 0:
            assert expected in out
        else:
            assert err.startswith(expected) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,kind",
        [
            (("run", "fig19", "--pruning-ratios", "0.5"), "result"),
            (("plan", "tiny"), "plan"),
        ],
        ids=["result", "plan"],
    )
    def test_reregistered_device_misses(
        self, capsys, monkeypatch, tmp_path, argv, kind
    ):
        """A device registered at runtime lives in the caller's script, which
        the code digest cannot see: re-registering its name under another
        config must miss, not replay the first config's entries."""
        from repro.core.accelerator import FlexNeRFer
        from repro.core.config import FlexNeRFerConfig
        from repro.core.device import DEVICE_REGISTRY, register_device
        from repro.perf.store import ResultStore
        from repro.sim import sweep

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        # Restores the built-in factory after the test re-registers the name.
        monkeypatch.setitem(
            DEVICE_REGISTRY, "flexnerfer", DEVICE_REGISTRY["flexnerfer"]
        )
        written = []
        put = ResultStore.put

        def counting_put(self, key, payload):
            written.append(key.kind)
            return put(self, key, payload)

        monkeypatch.setattr(ResultStore, "put", counting_put)

        def puts_in_a_new_process(frequency_hz):
            register_device(
                "flexnerfer",
                lambda: FlexNeRFer(FlexNeRFerConfig(frequency_hz=frequency_hz)),
                overwrite=True,
            )
            monkeypatch.setattr(sweep, "_DEFAULT_ENGINE", None)  # no warm engine
            written.clear()
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
            return written.count(kind)

        cold = puts_in_a_new_process(800e6)
        assert cold > 0
        assert puts_in_a_new_process(800e6) == 0
        assert puts_in_a_new_process(400e6) == cold


class TestRetiredSurface:
    """The multi-machine commands and options are gone: each exits 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("shard", "all", "--index", "0", "--count", "1"),
            ("assemble", "p.json"),
            ("plan", "tiny", "--no-store", "--shard", "0/2"),
            ("plan", "tiny", "--no-store", "--pack", "p.json"),
        ],
        ids=["shard", "assemble", "plan--shard", "plan--pack"],
    )
    def test_exits_2_with_one_line_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""


class TestCache:
    def test_needs_an_action(self, capsys):
        code, _, err = run_cli(capsys, "cache")
        assert code == 2
        assert "stats | clear | evict" in err

    def test_unknown_action_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "cache", "explode")
        assert code == 2
        assert "unknown cache action" in err

    def test_stats_json_on_explicit_dir(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cache", "stats", "--dir", str(tmp_path), "--format", "json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["root"] == str(tmp_path)
        assert stats["entries"] == 0

    def test_clear_reports_removals(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        run_cli(capsys, "run", "fig01")
        code, out, _ = run_cli(capsys, "cache", "stats")
        assert code == 0 and str(tmp_path) in out
        code, out, _ = run_cli(capsys, "cache", "clear")
        assert code == 0 and "removed" in out
        code, out, _ = run_cli(
            capsys, "cache", "stats", "--format", "json"
        )
        assert json.loads(out)["entries"] == 0

    def test_stats_and_evict_treat_other_code_digests_as_stale(
        self, capsys, tmp_path, use_code_digest
    ):
        from repro.perf.store import PlanPointKey, ResultStore

        store = ResultStore(tmp_path)
        use_code_digest("a" * 64)
        store.put(PlanPointKey("space", "p1"), {"metrics": {}})
        store.put(PlanPointKey("space", "p2"), {"metrics": {}})
        use_code_digest("b" * 64)
        code, out, _ = run_cli(capsys, "cache", "stats", "--dir", str(tmp_path))
        assert code == 0
        assert "code digest:    bbbbbbbbbbbbbbbb" in out
        assert "stale entries:  2 (other code digests)" in out
        code, out, _ = run_cli(
            capsys, "cache", "stats", "--dir", str(tmp_path), "--format", "json"
        )
        stats = json.loads(out)
        assert stats["code_digest"] == "b" * 64 and "schema_version" not in stats
        assert (stats["entries"], stats["stale_entries"]) == (0, 2)
        code, out, _ = run_cli(capsys, "cache", "evict", "--dir", str(tmp_path))
        assert code == 0 and "evicted 2 entries" in out
        assert store.stats().stale_entries == 0

    def test_evict_with_bounds(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "cache", "evict", "--dir", str(tmp_path),
            "--max-entries", "10", "--max-age-days", "1",
        )
        assert code == 0 and "evicted 0 entries" in out

    def test_evict_bad_bound_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "evict", "--dir", str(tmp_path), "--max-entries", "x"
        )
        assert code == 2
        assert "--max-entries" in err

    def test_evict_negative_bound_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "evict", "--dir", str(tmp_path), "--max-entries", "-5"
        )
        assert code == 2
        assert ">= 0" in err

    @pytest.mark.parametrize("days", ["nan", "inf", "1e306"])
    def test_evict_non_finite_age_exits_2(self, capsys, monkeypatch, tmp_path, days):
        # 1e306 days is finite but overflows to an infinite age in seconds.
        from repro.perf.store import ResultStore

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        run_cli(capsys, "run", "fig04")
        store = ResultStore(tmp_path)
        entries = store.stats().entries
        assert entries > 0
        code, out, err = run_cli(capsys, "cache", "evict", "--max-age-days", days)
        assert code == 2
        assert err.count("\n") == 1 and "--max-age-days" in err
        assert out == ""
        assert store.stats().entries == entries  # nothing was evicted

    def test_stats_bad_format_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "stats", "--dir", str(tmp_path), "--format", "josn"
        )
        assert code == 2
        assert "invalid format 'josn'" in err

    def test_clear_rejects_eviction_bounds(self, capsys, tmp_path):
        # `clear --max-age-days 30` must not silently wipe everything.
        code, _, err = run_cli(
            capsys, "cache", "clear", "--dir", str(tmp_path),
            "--max-age-days", "30",
        )
        assert code == 2
        assert "unknown option" in err

    def test_stats_rejects_eviction_bounds(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "cache", "stats", "--dir", str(tmp_path), "--max-entries", "5"
        )
        assert code == 2
        assert "unknown option" in err


class TestDocs:
    def test_writes_catalog(self, capsys, tmp_path):
        target = tmp_path / "experiments.md"
        code, out, _ = run_cli(capsys, "docs", "--out", str(target))
        assert code == 0 and f"wrote {target}" in out
        text = target.read_text()
        assert "# Experiment catalog" in text
        for exp_id in EXPERIMENTS:
            assert f"`{exp_id}`" in text

    def test_check_passes_on_fresh_catalog(self, capsys, tmp_path):
        target = tmp_path / "experiments.md"
        run_cli(capsys, "docs", "--out", str(target))
        code, out, _ = run_cli(capsys, "docs", "--out", str(target), "--check")
        assert code == 0
        assert "up to date" in out

    def test_check_fails_on_stale_catalog(self, capsys, tmp_path):
        target = tmp_path / "experiments.md"
        run_cli(capsys, "docs", "--out", str(target))
        target.write_text(target.read_text() + "\ndrift\n")
        code, _, err = run_cli(capsys, "docs", "--out", str(target), "--check")
        assert code == 1
        assert "stale" in err

    def test_check_fails_when_catalog_missing(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "docs", "--out", str(tmp_path / "missing.md"), "--check"
        )
        assert code == 1 and "stale" in err

    def test_checked_in_catalog_is_current(self, capsys):
        """The repository's docs/experiments.md must match the registry."""
        from pathlib import Path

        from repro.experiments.catalog import CATALOG_PATH, catalog_markdown

        repo_root = Path(__file__).resolve().parents[2]
        checked_in = repo_root / CATALOG_PATH
        assert checked_in.exists(), "docs/experiments.md missing; run 'repro docs'"
        assert checked_in.read_text() == catalog_markdown(), (
            "docs/experiments.md is stale; run 'repro docs' to regenerate"
        )

    def test_default_path_is_anchored_to_the_repo_not_cwd(
        self, capsys, tmp_path, monkeypatch
    ):
        from pathlib import Path

        from repro.experiments.catalog import CATALOG_PATH, default_catalog_path

        repo_root = Path(__file__).resolve().parents[2]
        assert default_catalog_path() == repo_root / CATALOG_PATH
        # The installed console script may run from anywhere.
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "docs", "--check")
        assert code == 0 and "up to date" in out
        assert not (tmp_path / "docs").exists()


#: Arguments that make each command valid apart from the flag under test.
VALID_ARGS = {
    "list": (),
    "run": ("fig06",),
    "plan": ("tiny",),
    "trace": ("trace.csv",),
    "docs": (),
    "lint": (),
    "bench": (),
    "cache": ("stats",),
}

DOCUMENTED = [
    pytest.param(spec, option, id=f"{spec.name}{option.flag}")
    for spec in COMMANDS
    for option in spec.options
    if option.flag != "--<param>"
]


def sample_words(option):
    """A representative value: the first choice, else one word per placeholder."""
    return [word.split("|")[0] for word in option.value.split()]


class TestSpecIsTheParser:
    """COMMANDS documents the CLI and is also what parses it."""

    @pytest.mark.parametrize("spec,option", DOCUMENTED)
    def test_documented_option_is_accepted_in_both_forms(self, spec, option):
        words = sample_words(option)
        if not words:
            assert _parse(spec, [option.flag]) == ([], {option.flag: True}, [])
            return
        expected = words[0] if len(words) == 1 else tuple(words)
        for args in (
            [option.flag, *words],
            [f"{option.flag}={words[0]}", *words[1:]],
        ):
            assert _parse(spec, args) == ([], {option.flag: expected}, [])

    @pytest.mark.parametrize("spec", COMMANDS, ids=lambda spec: spec.name)
    def test_undocumented_flag_is_rejected(self, capsys, spec):
        takes_params = any(option.flag == "--<param>" for option in spec.options)
        code, _, err = run_cli(
            capsys, spec.name, *VALID_ARGS[spec.name], "--frobnicate", "1"
        )
        assert code == 2 and err.count("\n") == 1
        kind = "parameter" if takes_params else "option"
        assert f"unknown {kind} '--frobnicate'" in err

    @pytest.mark.parametrize(
        "spec,option", [p for p in DOCUMENTED if p.values[1].value]
    )
    def test_missing_value_exits_2(self, capsys, spec, option):
        code, _, err = run_cli(capsys, spec.name, *VALID_ARGS[spec.name], option.flag)
        assert code == 2 and err.count("\n") == 1
        assert f"missing value for {option.flag}" in err

    @pytest.mark.parametrize(
        "spec,option", [p for p in DOCUMENTED if "|" in p.values[1].value]
    )
    def test_value_outside_the_choices_exits_2(self, capsys, spec, option):
        code, _, err = run_cli(
            capsys, spec.name, *VALID_ARGS[spec.name], option.flag, "bogus"
        )
        assert code == 2 and err.count("\n") == 1
        assert f"invalid {option.flag[2:]} 'bogus'" in err

    @pytest.mark.parametrize(
        "args",
        [
            ("--compare", "a.json"),
            ("--compare=a.json",),
            ("--compare", "a.json", "--quick"),
        ],
    )
    def test_compare_needs_two_paths(self, capsys, args):
        code, _, err = run_cli(capsys, "bench", *args)
        assert code == 2 and err.count("\n") == 1
        assert "missing value for --compare" in err

    def test_boolean_flag_takes_no_value(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig06", "--no-store=yes")
        assert code == 2 and "--no-store takes no value" in err
