"""The bench harness emits valid, self-consistent BENCH documents.

Timing magnitudes are machine-dependent and not asserted; what is pinned
is structure (schema validation), the committed trajectory points'
validity, and the CLI surface (write / validate / error paths).
"""

import json

import pytest

from repro.experiments import cli
from repro.perf.bench import (
    BENCH_SCHEMA_VERSION,
    bench_filename,
    bench_hot_path,
    compare_bench,
    load_bench_documents,
    render_compare,
    render_trend,
    repo_revision,
    run_bench,
    trend_report,
    validate_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def quick_document():
    """One quick bench run shared by the document-shape tests."""
    return run_bench(quick=True)


class TestRunBench:
    def test_document_validates(self, quick_document):
        assert validate_bench(quick_document) == []

    def test_metadata(self, quick_document):
        assert quick_document["schema_version"] == BENCH_SCHEMA_VERSION
        assert quick_document["quick"] is True
        assert quick_document["revision"] == repo_revision()

    def test_sweep_section_times_cold_and_warm_memory(self, quick_document):
        sweep = quick_document["sweep"]
        assert 0 < sweep["render_calls"] <= sweep["sweep_points"]
        assert sweep["cold_s"] > 0 and sweep["warm_memory_s"] > 0
        assert set(sweep) == {"sweep_points", "render_calls", "cold_s", "warm_memory_s"}

    def test_quick_experiment_section(self, quick_document):
        ids = [row["id"] for row in quick_document["experiments"]]
        assert ids == sorted(set(ids), key=ids.index)  # no duplicates
        assert set(ids) == set(cli_quick_ids())
        assert all(row["wall_time_s"] >= 0 for row in quick_document["experiments"])

    def test_serving_section(self, quick_document):
        serving = quick_document["serving"]
        assert serving["num_requests"] > 0
        assert serving["requests_per_wall_s"] > 0
        assert serving["time_compression"] > 0

    def test_experiment_section_restores_the_engine_store(self, tmp_path):
        from repro.perf.bench import bench_experiments
        from repro.perf.store import ResultStore
        from repro.sim.sweep import get_default_engine

        engine = get_default_engine()
        store = ResultStore(tmp_path)
        engine.attach_store(store)
        try:
            bench_experiments(quick=True)
            assert engine.store is store
        finally:
            engine.attach_store(None)

    def test_hot_path_measures_both_caches(self):
        section = bench_hot_path(quick=True)
        for name in ("tiling", "operand_bytes"):
            assert section[name]["cached_s_per_call"] > 0
            assert section[name]["uncached_s_per_call"] > 0
            assert section[name]["speedup"] > 0

    def test_hot_path_measures_scene_and_fleet_kernels(self, quick_document):
        hot = quick_document["hot_path"]
        scene = hot["scene_density"]
        assert scene["num_points"] > 0
        assert scene["batched_s_per_call"] > 0
        assert scene["reference_s_per_call"] > 0
        assert scene["speedup"] > 0
        fleet = hot["fleet_dispatch"]
        assert fleet["num_requests"] > 0
        assert fleet["requests_per_wall_s"] > 0
        assert fleet["speedup"] > 0


def cli_quick_ids():
    from repro.perf.bench import QUICK_EXPERIMENT_IDS

    return QUICK_EXPERIMENT_IDS


class TestValidateBench:
    def test_rejects_non_object(self):
        assert validate_bench([1, 2]) != []
        assert validate_bench(None) != []

    def test_reports_missing_keys(self, quick_document):
        broken = dict(quick_document)
        del broken["sweep"]
        assert any("sweep" in p for p in validate_bench(broken))

    def test_reports_schema_drift(self, quick_document):
        drifted = dict(quick_document)
        drifted["schema_version"] = BENCH_SCHEMA_VERSION + 1
        assert any("drift" in p for p in validate_bench(drifted))

    def test_reports_missing_section_fields(self, quick_document):
        broken = dict(quick_document)
        broken["sweep"] = {k: v for k, v in broken["sweep"].items() if k != "cold_s"}
        assert any("cold_s" in p for p in validate_bench(broken))

    def test_reports_missing_render_calls(self, quick_document):
        broken = dict(quick_document)
        broken["sweep"] = {
            k: v for k, v in broken["sweep"].items() if k != "render_calls"
        }
        assert any("render_calls" in p for p in validate_bench(broken))

    def test_committed_points_with_retired_store_keys_validate(self):
        from repro.perf.bench import default_bench_dir

        paths = sorted(default_bench_dir().glob("BENCH_*.json"))
        assert paths
        for path in paths:
            document = json.loads(path.read_text())
            assert "warm_store_s" in document["sweep"]
            assert validate_bench(document) == [], path.name

    def test_reports_bad_hot_path(self, quick_document):
        broken = dict(quick_document)
        broken["hot_path"] = {"tiling": {}}
        problems = validate_bench(broken)
        assert any("tiling" in p for p in problems)

    def test_every_hot_path_section_is_optional(self, quick_document):
        # Committed trajectory points span emitter generations: older ones
        # lack scene_density / fleet_dispatch, and a future emitter may
        # rename tiling / operand_bytes.  Any subset must keep validating.
        old_style = json.loads(json.dumps(quick_document))
        old_style["hot_path"].pop("scene_density")
        old_style["hot_path"].pop("fleet_dispatch")
        assert validate_bench(old_style) == []
        minimal = json.loads(json.dumps(quick_document))
        minimal["hot_path"] = {}
        assert validate_bench(minimal) == []

    def test_unknown_hot_path_sections_are_tolerated(self, quick_document):
        # ... and a *newer* emitter's extra microbenchmarks validate here
        # as long as they carry the one field every section promises.
        newer = json.loads(json.dumps(quick_document))
        newer["hot_path"]["ray_marcher"] = {"speedup": 3.0}
        assert validate_bench(newer) == []
        newer["hot_path"]["ray_marcher"] = {"num_rays": 64}
        assert any("ray_marcher" in p for p in validate_bench(newer))

    def test_malformed_optional_section_rejected(self, quick_document):
        broken = json.loads(json.dumps(quick_document))
        broken["hot_path"]["scene_density"] = {"num_points": 3}
        assert any("scene_density" in p for p in validate_bench(broken))


class TestWriteBench:
    def test_writes_into_directory(self, quick_document, tmp_path):
        path = write_bench(quick_document, tmp_path)
        assert path == tmp_path / bench_filename(quick_document["revision"])
        assert validate_bench(json.loads(path.read_text())) == []

    def test_creates_missing_directory(self, quick_document, tmp_path):
        path = write_bench(quick_document, tmp_path / "nested" / "dir")
        assert path.parent == tmp_path / "nested" / "dir"
        assert path.exists()

    def test_explicit_json_path(self, quick_document, tmp_path):
        path = write_bench(quick_document, tmp_path / "point.json")
        assert path == tmp_path / "point.json"
        assert json.loads(path.read_text())["schema"] == "repro-bench"


class TestBenchCLI:
    def test_bench_quick_out(self, tmp_path, capsys):
        assert cli.main(["bench", "--quick", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "sweep:" in out and "serving:" in out
        files = list(tmp_path.glob("BENCH_*.json"))
        assert len(files) == 1
        assert validate_bench(json.loads(files[0].read_text())) == []

    def test_validate_ok(self, quick_document, tmp_path, capsys):
        path = write_bench(quick_document, tmp_path)
        assert cli.main(["bench", "--validate", str(path)]) == 0
        assert "conforms" in capsys.readouterr().out

    def test_validate_drift_fails(self, quick_document, tmp_path, capsys):
        drifted = dict(quick_document)
        drifted["schema_version"] = BENCH_SCHEMA_VERSION + 1
        path = tmp_path / "drifted.json"
        path.write_text(json.dumps(drifted))
        assert cli.main(["bench", "--validate", str(path)]) == 1
        assert "drift" in capsys.readouterr().err

    def test_validate_missing_file(self, tmp_path, capsys):
        assert cli.main(["bench", "--validate", str(tmp_path / "nope.json")]) == 2
        assert "no such BENCH file" in capsys.readouterr().err

    def test_validate_directory_exits_2(self, tmp_path, capsys):
        # A natural slip: passing the --out directory instead of the file.
        assert cli.main(["bench", "--validate", str(tmp_path)]) == 2
        assert "cannot read BENCH file" in capsys.readouterr().err

    def test_validate_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        assert cli.main(["bench", "--validate", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_option(self, capsys):
        assert cli.main(["bench", "--frobnicate", "1"]) == 2
        assert "unknown option" in capsys.readouterr().err


def variant_of(document, **edits):
    """A deep-ish copy of ``document`` with top-level section dicts replaced."""
    clone = json.loads(json.dumps(document))
    for dotted, value in edits.items():
        node = clone
        parts = dotted.split("__")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return clone


class TestCompareBench:
    def test_reports_deltas_and_regressions(self, quick_document):
        slower = variant_of(
            quick_document,
            revision="other",
            sweep__cold_s=quick_document["sweep"]["cold_s"] * 2,
            serving__requests_per_wall_s=(
                quick_document["serving"]["requests_per_wall_s"] * 2
            ),
        )
        comparison = compare_bench(quick_document, slower)
        assert comparison["baseline_revision"] == quick_document["revision"]
        assert comparison["current_revision"] == "other"
        by_metric = {row["metric"]: row for row in comparison["metrics"]}
        cold = by_metric["sweep.cold_s"]
        assert cold["regression"] is True
        assert cold["delta_pct"] == pytest.approx(100.0)
        # A *higher* throughput is an improvement, not a regression.
        assert by_metric["serving.requests_per_wall_s"]["regression"] is False
        ids = {row["id"] for row in comparison["experiments"]}
        assert ids == {row["id"] for row in quick_document["experiments"]}
        assert comparison["unmatched_experiments"] == []

    def test_mismatched_quick_flags_rejected(self, quick_document):
        full = variant_of(quick_document, quick=False)
        with pytest.raises(ValueError, match="quick"):
            compare_bench(quick_document, full)

    def test_compare_spans_hot_path_generations(self, quick_document):
        # An old point (no tiling / operand_bytes) against a new full one:
        # the shared metrics are compared, the mismatched hot_path
        # sections are skipped rather than failing validation.
        old_point = variant_of(quick_document, revision="old")
        old_point["hot_path"] = {
            "scene_density": old_point["hot_path"]["scene_density"]
        }
        comparison = compare_bench(old_point, quick_document)
        metrics = {row["metric"] for row in comparison["metrics"]}
        assert "sweep.cold_s" in metrics
        assert "hot_path.scene_density.speedup" in metrics
        assert "hot_path.tiling.speedup" not in metrics
        assert "hot_path.fleet_dispatch.speedup" not in metrics

    def test_invalid_document_rejected(self, quick_document):
        broken = variant_of(quick_document)
        del broken["sweep"]
        with pytest.raises(ValueError, match="not a valid BENCH"):
            compare_bench(quick_document, broken)

    def test_platform_mismatch_warns(self, quick_document):
        other = variant_of(quick_document, platform="hypothetical-os")
        comparison = compare_bench(quick_document, other)
        assert any("platform differs" in w for w in comparison["warnings"])

    def test_render_lists_metrics(self, quick_document):
        text = render_compare(compare_bench(quick_document, quick_document))
        assert "sweep.cold_s" in text
        assert "regression" not in text  # identical documents regress nothing

    def test_cli_compare(self, quick_document, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(quick_document))
        b.write_text(
            json.dumps(
                variant_of(
                    quick_document,
                    sweep__cold_s=quick_document["sweep"]["cold_s"] * 2,
                )
            )
        )
        assert cli.main(["bench", "--compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "BENCH compare" in out and "sweep.cold_s" in out

    def test_cli_compare_needs_two_paths(self, tmp_path, capsys):
        assert cli.main(["bench", "--compare", str(tmp_path / "a.json")]) == 2
        assert "missing value for --compare" in capsys.readouterr().err

    def test_cli_compare_mismatch_exits_2(self, quick_document, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(quick_document))
        b.write_text(json.dumps(variant_of(quick_document, quick=False)))
        assert cli.main(["bench", "--compare", str(a), str(b)]) == 2
        assert "quick" in capsys.readouterr().err


class TestTrend:
    def make_point(self, quick_document, revision, created, **edits):
        point = variant_of(quick_document, revision=revision, **edits)
        point["created_utc"] = created
        return point

    def test_load_orders_by_created_and_skips_invalid(
        self, quick_document, tmp_path
    ):
        newer = self.make_point(quick_document, "bbb", "2026-08-08T10:00:00Z")
        older = self.make_point(quick_document, "aaa", "2026-08-01T10:00:00Z")
        (tmp_path / "BENCH_bbb.json").write_text(json.dumps(newer))
        (tmp_path / "BENCH_aaa.json").write_text(json.dumps(older))
        (tmp_path / "BENCH_junk.json").write_text("{ nope")
        drifted = variant_of(quick_document, schema_version=BENCH_SCHEMA_VERSION + 1)
        (tmp_path / "BENCH_drift.json").write_text(json.dumps(drifted))
        documents = load_bench_documents(tmp_path)
        assert [doc["revision"] for _, doc in documents] == ["aaa", "bbb"]

    def test_deltas_are_direction_aware(self, quick_document):
        first = self.make_point(quick_document, "aaa", "2026-08-01T10:00:00Z")
        second = self.make_point(
            quick_document,
            "bbb",
            "2026-08-08T10:00:00Z",
            sweep__cold_s=quick_document["sweep"]["cold_s"] * 2,
            serving__requests_per_wall_s=(
                quick_document["serving"]["requests_per_wall_s"] * 2
            ),
        )
        report = trend_report([first, second])
        assert len(report["points"]) == 2
        assert report["points"][0]["deltas"] == {}
        deltas = report["points"][1]["deltas"]
        # Cold sweep doubled: lower-is-better, so that's a regression.
        assert deltas["sweep cold s"]["regression"] is True
        assert deltas["sweep cold s"]["delta_pct"] == pytest.approx(100.0)
        # Serving throughput doubled: higher-is-better, an improvement.
        assert deltas["serving req/s"]["regression"] is False

    def test_quick_and_full_points_never_compared(self, quick_document):
        quick_point = self.make_point(quick_document, "aaa", "2026-08-01T10:00:00Z")
        full_point = self.make_point(
            quick_document, "bbb", "2026-08-08T10:00:00Z", quick=False
        )
        report = trend_report([quick_point, full_point])
        assert report["points"][1]["deltas"] == {}

    def test_missing_experiment_renders_as_dash(self, quick_document):
        point = self.make_point(
            quick_document, "aaa", "2026-08-01T10:00:00Z", experiments=[]
        )
        report = trend_report([point])
        assert report["points"][0]["values"]["fig13 s"] is None
        text = render_trend(report)
        assert "aaa" in text and " - " in text

    def test_render_marks_regressions(self, quick_document):
        first = self.make_point(quick_document, "aaa", "2026-08-01T10:00:00Z")
        second = self.make_point(
            quick_document,
            "bbb",
            "2026-08-08T10:00:00Z",
            sweep__cold_s=quick_document["sweep"]["cold_s"] * 2,
        )
        text = render_trend(trend_report([first, second]))
        assert "vs previous" in text
        assert "!" in text

    def test_trend_spans_hot_path_generations(self, quick_document, tmp_path):
        # A trajectory mixing emitter generations (one point without the
        # tiling / operand_bytes microbenchmarks, one with an extra future
        # section) loads in full and renders one row per point.
        old_point = self.make_point(quick_document, "aaa", "2026-08-01T10:00:00Z")
        old_point["hot_path"] = {}
        new_point = self.make_point(quick_document, "bbb", "2026-08-08T10:00:00Z")
        new_point["hot_path"]["ray_marcher"] = {"speedup": 3.0}
        (tmp_path / "BENCH_aaa.json").write_text(json.dumps(old_point))
        (tmp_path / "BENCH_bbb.json").write_text(json.dumps(new_point))
        documents = [doc for _, doc in load_bench_documents(tmp_path)]
        assert [doc["revision"] for doc in documents] == ["aaa", "bbb"]
        report = trend_report(documents)
        assert len(report["points"]) == 2
        assert report["points"][1]["deltas"]  # still compared across the mix

    def test_render_empty(self):
        assert "no valid BENCH" in render_trend(trend_report([]))

    def test_cli_trend(self, quick_document, tmp_path, capsys):
        point = self.make_point(quick_document, "abc1234", "2026-08-01T10:00:00Z")
        (tmp_path / "BENCH_abc1234.json").write_text(json.dumps(point))
        assert cli.main(["bench", "--trend", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "BENCH trend" in out and "abc1234" in out

    def test_cli_trend_renders_the_committed_points(self, capsys):
        from repro.perf.bench import default_bench_dir

        revisions = [
            path.stem.removeprefix("BENCH_")
            for path in default_bench_dir().glob("BENCH_*.json")
        ]
        assert cli.main(["bench", "--trend"]) == 0
        out = capsys.readouterr().out
        assert f"{len(revisions)} point(s)" in out
        assert all(revision in out for revision in revisions)

    def test_cli_trend_empty_dir_exits_1(self, tmp_path, capsys):
        assert cli.main(["bench", "--trend", "--dir", str(tmp_path)]) == 1
        assert "no valid BENCH" in capsys.readouterr().out

    def test_cli_trend_missing_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert cli.main(["bench", "--trend", "--dir", str(missing)]) == 2
        assert "no such trend directory" in capsys.readouterr().err
