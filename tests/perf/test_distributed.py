"""Correctness of distributed sharding and assembly (repro.perf.distributed).

Pins the distribution layer's promises: shard assignment is a pure,
pinned function of a key's content digest (identical across runs and
platforms), shards are disjoint and collectively complete at both the
experiment granularity, store packs round-trip
bit-exactly with loud conflict detection, and ``repro shard`` x N followed
by ``repro assemble`` reproduces a serial cold ``repro run`` byte-for-byte
(modulo the provenance wall-clock field, which records the producing
run's measurement).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS
from repro.nerf.models import FrameConfig
from repro.perf.distributed import (
    Shard,
    assemble_packs,
    experiment_result_key,
    normalize_result_json,
    shard_experiments,
    shard_index,
)
from repro.perf.store import (
    PACK_SCHEMA,
    PACK_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    MergeStats,
    PackConflictError,
    ResultStore,
    StoreKey,
)
from repro.sim.sweep import SweepEngine, SweepSpec
from repro.sparse.formats import Precision

from tests._differential import assert_text_matches_modulo_wall_time

SMALL_SPEC = SweepSpec(
    devices=("flexnerfer", "neurex"),
    models=("instant-ngp",),
    precisions=(None, Precision.INT8),
    pruning_ratios=(0.0, 0.5),
    base_config=FrameConfig(image_width=100, image_height=100),
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def _detach_default_store():
    """Shard/assemble CLI runs attach stores to the shared engine; detach
    after each test so other modules keep the pure in-memory path."""
    yield
    from repro.sim.sweep import get_default_engine

    get_default_engine().attach_store(None)


def populate_store(root) -> ResultStore:
    """A store holding the small reference sweep's frame entries."""
    store = ResultStore(root)
    SweepEngine(store=store).run(SMALL_SPEC)
    return store


def frame_entries(root) -> list[tuple[Path, StoreKey]]:
    """Every frame entry under a store root, with the key it records."""
    return [
        (path, StoreKey(**json.loads(path.read_text())["key"]))
        for path in sorted(Path(root).rglob("frame/*/*.json"))
    ]


class TestShardAssignment:
    def test_pinned_assignments(self):
        # int(digest[:16], 16) % count -- pinned so the partition function
        # can never drift silently (old shard artifacts would misassemble).
        assert shard_index("0" * 40, 4) == 0
        assert shard_index("f" * 40, 4) == (16**16 - 1) % 4
        assert shard_index("123456789abcdef0" + "0" * 24, 7) == (
            0x123456789ABCDEF0 % 7
        )

    def test_accepts_keys_and_digests(self, tmp_path):
        engine = SweepEngine(store=ResultStore(tmp_path))
        engine.frame_report(
            "flexnerfer", "instant-ngp", config=SMALL_SPEC.base_config
        )
        [(path, key)] = frame_entries(tmp_path)
        assert path.stem == key.digest
        assert shard_index(key, 5) == shard_index(key.digest, 5)

    def test_deterministic_across_engines(self, tmp_path):
        # Two independent engines address the same simulated content at
        # the same store path, so every machine agrees on shard ownership.
        entries = []
        for name in ("a", "b"):
            root = tmp_path / name
            SweepEngine(store=ResultStore(root)).frame_report(
                "flexnerfer",
                "instant-ngp",
                config=SMALL_SPEC.base_config,
                precision=Precision.INT8,
            )
            [(path, _)] = frame_entries(root)
            entries.append(path.relative_to(root))
        assert entries[0] == entries[1]

    def test_exactly_one_shard_owns_each_key(self):
        for salt in range(20):
            digest = f"{salt:040x}"
            owners = [i for i in range(4) if Shard(i, 4).contains(digest)]
            assert len(owners) == 1
            assert owners[0] == shard_index(digest, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_index("ab" * 20, 0)
        with pytest.raises(ValueError):
            Shard(4, 4)
        with pytest.raises(ValueError):
            Shard(-1, 4)
        with pytest.raises(ValueError):
            Shard(0, 0)
        with pytest.raises(TypeError):
            shard_index(object(), 4)
        with pytest.raises(TypeError):
            Shard(0, 4).contains(object())


class TestExperimentSharding:
    def test_disjoint_and_complete_over_the_registry(self):
        experiments = list(EXPERIMENTS.values())
        seen: list[str] = []
        for i in range(4):
            seen += [
                e.id for e in shard_experiments(experiments, Shard(i, 4))
            ]
        assert sorted(seen) == sorted(EXPERIMENTS)  # each id exactly once

    def test_overrides_change_the_key_deterministically(self):
        exp = EXPERIMENTS["fig19"]
        base = experiment_result_key(exp)
        overridden = experiment_result_key(exp, {"pruning_ratios": (0.0,)})
        assert base.digest != overridden.digest
        assert (
            experiment_result_key(exp, {"pruning_ratios": (0.0,)}).digest
            == overridden.digest
        )


class TestPackRoundTrip:
    def test_export_then_merge_is_bit_exact(self, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "a.pack.json")
        target = ResultStore(tmp_path / "b")
        stats = target.merge_from(pack)
        assert stats.added == source.stats().entries > 0
        assert stats.identical == 0 and not stats.conflicts
        engine = SweepEngine(store=target)
        rows = engine.run(SMALL_SPEC)
        assert engine.stats.render_calls == 0  # every report replayed
        reference = SweepEngine(store=source).run(SMALL_SPEC)
        for ours, theirs in zip(rows, reference):
            assert ours.report.latency_s == theirs.report.latency_s
            assert ours.report.energy_j == theirs.report.energy_j

    def test_remerge_identical_is_last_write_wins(self, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "a.pack.json")
        target = ResultStore(tmp_path / "b")
        target.merge_from(pack)
        stats = target.merge_from(pack)
        assert stats.added == 0
        assert stats.identical == source.stats().entries
        assert not stats.conflicts

    def test_merge_from_store_directory(self, tmp_path):
        source = populate_store(tmp_path / "a")
        target = ResultStore(tmp_path / "b")
        stats = target.merge_from(tmp_path / "a")
        assert stats.added == source.stats().entries

    def test_empty_store_exports_an_empty_pack(self, tmp_path):
        pack = ResultStore(tmp_path / "empty").export_pack(tmp_path / "e.json")
        document = json.loads(pack.read_text())
        assert document["schema"] == PACK_SCHEMA
        assert document["pack_schema_version"] == PACK_SCHEMA_VERSION
        assert document["entries"] == []
        assert ResultStore(tmp_path / "b").merge_from(pack) == MergeStats()

    def test_merge_stats_combine_and_serialize(self):
        combined = MergeStats(added=1, conflicts=("x",)).combined(
            MergeStats(identical=2, skipped=3)
        )
        assert combined == MergeStats(
            added=1, identical=2, skipped=3, conflicts=("x",)
        )
        assert combined.to_dict()["conflicts"] == ["x"]


class TestConflictDetection:
    def corrupt_one_entry(self, root) -> str:
        """Flip one stored latency in ``root``'s frame tier; returns the path."""
        store = ResultStore(root)
        path = next(
            p for p in sorted(root.rglob("*.json")) if "/frame/" in str(p)
        )
        document = json.loads(path.read_text())
        document["payload"]["latency_s"] += 1.0
        path.write_text(json.dumps(document))
        return str(path.relative_to(store.root / f"v{store.schema_version}"))

    def test_diverging_content_raises(self, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "a.pack.json")
        target = ResultStore(tmp_path / "b")
        target.merge_from(pack)
        rel = self.corrupt_one_entry(tmp_path / "b")
        with pytest.raises(PackConflictError) as excinfo:
            target.merge_from(pack)
        assert rel in excinfo.value.conflicts

    def test_non_strict_merge_keeps_target_and_reports(self, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "a.pack.json")
        target = ResultStore(tmp_path / "b")
        target.merge_from(pack)
        rel = self.corrupt_one_entry(tmp_path / "b")
        corrupted = (tmp_path / "b" / f"v{target.schema_version}" / rel).read_text()
        stats = target.merge_from(pack, strict=False)
        assert stats.conflicts == (rel,)
        assert (
            tmp_path / "b" / f"v{target.schema_version}" / rel
        ).read_text() == corrupted  # target kept its own entry

    def test_timestamps_do_not_conflict(self, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "a.pack.json")
        target = ResultStore(tmp_path / "b")
        target.merge_from(pack)
        # Rewrite one target entry with only its created_s changed.
        path = next(p for p in sorted((tmp_path / "b").rglob("*.json")))
        document = json.loads(path.read_text())
        document["created_s"] = 1.0
        path.write_text(json.dumps(document))
        assert not target.merge_from(pack).conflicts


class TestPackValidation:
    def test_missing_pack_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no such pack"):
            ResultStore(tmp_path / "s").merge_from(tmp_path / "nope.json")

    def test_non_pack_json_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError, match="not a result-store pack"):
            ResultStore(tmp_path / "s").merge_from(bogus)

    def test_foreign_store_schema_rejected(self, tmp_path):
        pack = populate_store(tmp_path / "a").export_pack(tmp_path / "p.json")
        document = json.loads(pack.read_text())
        document["store_schema_version"] += 1
        pack.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="store schema"):
            ResultStore(tmp_path / "b").merge_from(pack)

    def test_traversal_and_malformed_entries_are_skipped(self, tmp_path):
        pack = tmp_path / "evil.json"
        current = {"schema_version": STORE_SCHEMA_VERSION}
        pack.write_text(
            json.dumps(
                {
                    "schema": PACK_SCHEMA,
                    "pack_schema_version": PACK_SCHEMA_VERSION,
                    "store_schema_version": STORE_SCHEMA_VERSION,
                    "entries": [
                        {"path": "../../escape.json", "document": current},
                        {"path": "/abs.json", "document": current},
                        {"path": "..\\..\\win.json", "document": current},
                        {"path": "C:/drive.json", "document": current},
                        {"path": "frame/../../up.json", "document": current},
                        {"path": ".", "document": current},
                        {"path": "frame/ok.json", "document": {"schema_version": 99}},
                        {"path": "frame/ok2.json", "document": "not-a-dict"},
                        "not-an-entry",
                    ],
                }
            )
        )
        stats = ResultStore(tmp_path / "s").merge_from(pack)
        assert stats == MergeStats(skipped=8)
        for name in ("escape.json", "win.json", "drive.json", "up.json"):
            assert not (tmp_path / name).exists()


class TestShardAssembleCLI:
    IDS = ("fig04", "fig16")

    def shard_and_assemble(self, capsys, monkeypatch, tmp_path, count=3):
        """Serial cold run + N shard runs + assemble; returns both out dirs."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "serial-store"))
        code, _, _ = run_cli(
            capsys,
            "run",
            *self.IDS,
            "--format",
            "json",
            "--out",
            str(tmp_path / "serial-out"),
        )
        assert code == 0

        packs = []
        shard_sizes = []
        for i in range(count):
            pack = tmp_path / f"pack-{i}.json"
            code, out, _ = run_cli(
                capsys,
                "shard",
                *self.IDS,
                "--index",
                str(i),
                "--count",
                str(count),
                "--store",
                str(tmp_path / f"shard-store-{i}"),
                "--pack",
                str(pack),
            )
            assert code == 0
            assert f"shard {i}/{count}:" in out
            shard_sizes.append(
                int(out.split(f"shard {i}/{count}: ")[1].split(" of ")[0])
            )
            packs.append(str(pack))
        assert sum(shard_sizes) == len(self.IDS)  # disjoint and complete

        code, out, err = run_cli(
            capsys,
            "assemble",
            *packs,
            "--store",
            str(tmp_path / "assembled-store"),
            "--run",
            ",".join(self.IDS),
            "--out",
            str(tmp_path / "assembled-out"),
            "--check",
            str(tmp_path / "serial-out"),
        )
        assert code == 0, err
        assert "assembled output matches" in out
        return tmp_path / "serial-out", tmp_path / "assembled-out"

    def test_assembled_replay_matches_serial_cold_run(
        self, capsys, monkeypatch, tmp_path
    ):
        serial_out, assembled_out = self.shard_and_assemble(
            capsys, monkeypatch, tmp_path
        )
        for exp_id in self.IDS:
            serial = (serial_out / f"{exp_id}.json").read_text()
            assembled = (assembled_out / f"{exp_id}.json").read_text()
            assert_text_matches_modulo_wall_time(serial, assembled, exp_id)

    def test_check_flags_a_divergent_reference(
        self, capsys, monkeypatch, tmp_path
    ):
        serial_out, _ = self.shard_and_assemble(capsys, monkeypatch, tmp_path)
        doctored = (serial_out / "fig04.json").read_text().replace("fig04", "figXX")
        (serial_out / "fig04.json").write_text(doctored)
        code, _, err = run_cli(
            capsys,
            "assemble",
            str(tmp_path / "pack-0.json"),
            "--store",
            str(tmp_path / "assembled-store"),
            "--run",
            ",".join(self.IDS),
            "--check",
            str(serial_out),
        )
        assert code == 1
        assert "differs" in err

    def test_shard_requires_index_and_count(self, capsys):
        code, _, err = run_cli(capsys, "shard", "all")
        assert code == 2 and "--index" in err
        code, _, err = run_cli(capsys, "shard", "all", "--index", "0")
        assert code == 2 and "--count" in err

    def test_shard_rejects_out_of_range_index(self, capsys):
        code, _, err = run_cli(
            capsys, "shard", "all", "--index", "4", "--count", "4"
        )
        assert code == 2 and "shard index" in err

    def test_shard_rejects_unknown_experiment(self, capsys):
        code, _, err = run_cli(
            capsys, "shard", "nope", "--index", "0", "--count", "2"
        )
        assert code == 2 and err.startswith("error:")

    def test_assemble_requires_packs(self, capsys):
        code, _, err = run_cli(capsys, "assemble")
        assert code == 2 and "no shard packs" in err

    def test_assemble_rejects_missing_pack(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "assemble",
            str(tmp_path / "missing.json"),
            "--store",
            str(tmp_path / "s"),
        )
        assert code == 2 and "no such pack" in err

    def test_assemble_no_run_merges_only(self, capsys, tmp_path):
        pack = populate_store(tmp_path / "a").export_pack(tmp_path / "p.json")
        code, out, _ = run_cli(
            capsys,
            "assemble",
            str(pack),
            "--store",
            str(tmp_path / "b"),
            "--no-run",
        )
        assert code == 0
        assert "merged 1 pack(s)" in out
        assert ResultStore(tmp_path / "b").stats().entries > 0

    def test_shard_and_assemble_with_param_overrides(
        self, capsys, monkeypatch, tmp_path
    ):
        # Overrides are part of the result-tier key: the assemble replay
        # passed the same flags must be store-warm (zero recompute) and
        # match the shard runs' output.
        flags = ("--models", "nerf")
        packs = []
        for i in range(2):
            code, _, _ = run_cli(
                capsys,
                "shard",
                "fig16",
                "fig19",
                *flags,
                "--index",
                str(i),
                "--count",
                "2",
                "--store",
                str(tmp_path / f"s{i}"),
                "--pack",
                str(tmp_path / f"p{i}.json"),
            )
            assert code == 0
            packs.append(str(tmp_path / f"p{i}.json"))
        code, out, err = run_cli(
            capsys,
            "assemble",
            *packs,
            *flags,
            "--store",
            str(tmp_path / "asm"),
            "--run",
            "fig16,fig19",
            "--format",
            "json",
        )
        assert code == 0, err
        rendered = out[out.index("[") :]  # skip the "merged ..." status line
        payload = {r["experiment_id"]: r for r in json.loads(rendered)}
        assert set(payload) == {"fig16", "fig19"}
        # Replayed from the result tier, not recomputed: params stuck.
        assert payload["fig19"]["provenance"]["params"]["models"] == ["nerf"]
        from repro.sim.sweep import get_default_engine

        assert get_default_engine().store is not None

    def test_assemble_rejects_params_with_no_run(self, capsys, tmp_path):
        pack = populate_store(tmp_path / "a").export_pack(tmp_path / "p.json")
        code, _, err = run_cli(
            capsys,
            "assemble",
            str(pack),
            "--store",
            str(tmp_path / "b"),
            "--no-run",
            "--models",
            "nerf",
        )
        assert code == 2
        assert "drop --no-run" in err

    def test_assemble_surfaces_conflicts_as_cli_error(self, capsys, tmp_path):
        source = populate_store(tmp_path / "a")
        pack = source.export_pack(tmp_path / "p.json")
        target_root = tmp_path / "b"
        ResultStore(target_root).merge_from(pack)
        path = next(
            p for p in sorted(target_root.rglob("*.json")) if "/frame/" in str(p)
        )
        document = json.loads(path.read_text())
        document["payload"]["latency_s"] += 1.0
        path.write_text(json.dumps(document))
        code, _, err = run_cli(
            capsys,
            "assemble",
            str(pack),
            "--store",
            str(target_root),
            "--no-run",
        )
        assert code == 2
        assert "conflicting store entr" in err


class TestNormalization:
    def test_masks_only_wall_time(self):
        text = json.dumps(
            {"provenance": {"wall_time_s": 1.25e-03, "repo_version": "1.2.0"}},
            indent=2,
        )
        normalized = normalize_result_json(text)
        assert '"wall_time_s": 0.0' in normalized
        assert '"repo_version": "1.2.0"' in normalized
        assert normalize_result_json(normalized) == normalized


class TestAssemblePacksAPI:
    def test_accumulates_over_packs(self, tmp_path):
        first = populate_store(tmp_path / "a")
        pack_a = first.export_pack(tmp_path / "a.json")
        pack_b = first.export_pack(tmp_path / "b.json")
        target = ResultStore(tmp_path / "t")
        stats = assemble_packs(target, [pack_a, pack_b])
        assert stats.added == first.stats().entries
        assert stats.identical == first.stats().entries
