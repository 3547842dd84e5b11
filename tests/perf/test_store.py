"""Correctness of the persistent result store (repro.perf.store).

Pins the store's core promises: fingerprint changes on device / workload
edits address different entries, a source edit moves the store to a new
code-digest partition, warm-path results are bit-exact vs. the cold path
(down to per-op trace records), concurrent writers never corrupt the store,
and eviction / clearing behave as documented.
"""

import dataclasses
import json
import os
import shutil
import threading
from pathlib import Path
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.accelerator import FlexNeRFer
from repro.baselines.nvdla import NVDLAModel
from repro.baselines.tpu import TPUModel
from repro.core.device import get_device
from repro.core.config import FlexNeRFerConfig
from repro.nerf.models import FrameConfig, get_model
from repro.perf.store import (
    ExperimentResultKey,
    GridAssetKey,
    PlanPointKey,
    ResultStore,
    StoreKey,
    _source_digest,
    code_digest,
    experiment_result_key,
    report_from_dict,
    report_to_dict,
    workload_digest,
)
from repro.sim.sweep import SweepEngine, SweepSpec
from repro.sparse.formats import Precision

SMALL = FrameConfig(image_width=100, image_height=100)


def small_workload(model="instant-ngp", config=SMALL):
    return get_model(model).build_workload(config)


def render_small(device_name="flexnerfer"):
    return get_device(device_name).render_frame(small_workload())


def put_report(store, key, report):
    return store.put(key, report_to_dict(report))


def get_report(store, key):
    payload = store.get(key)
    return None if payload is None else report_from_dict(payload)


DIGEST_A, DIGEST_B = "a" * 64, "b" * 64


def make_key(salt="a"):
    return StoreKey(
        device_fingerprint=f"fp-{salt}",
        workload_digest=f"wl-{salt}",
        precision="INT16",
        pruning_ratio=0.0,
    )


class TestSerialization:
    def test_round_trip_is_bit_exact(self):
        report = render_small()
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert clone.device == report.device
        assert clone.model_name == report.model_name
        assert clone.latency_s == report.latency_s
        assert clone.energy_j == report.energy_j
        assert clone.precision == report.precision
        assert clone.extra == report.extra
        assert len(clone.trace.records) == len(report.trace.records)
        for ours, theirs in zip(clone.trace.records, report.trace.records):
            assert ours == theirs  # dataclass equality: every float field

    def test_round_trip_none_precision(self):
        report = render_small("rtx-2080-ti")
        assert report.precision is None
        clone = report_from_dict(report_to_dict(report))
        assert clone.precision is None


class TestFingerprints:
    def test_device_fingerprint_is_stable(self):
        assert TPUModel().fingerprint() == TPUModel().fingerprint()
        assert NVDLAModel().fingerprint() == NVDLAModel().fingerprint()
        assert FlexNeRFer().fingerprint() == FlexNeRFer().fingerprint()

    def test_device_edit_changes_fingerprint(self):
        assert TPUModel().fingerprint() != TPUModel(rows=32).fingerprint()
        assert TPUModel().fingerprint() != TPUModel(cols=32).fingerprint()
        assert (
            TPUModel().fingerprint()
            != TPUModel(typical_power_w=3.0).fingerprint()
        )
        assert (
            NVDLAModel().fingerprint()
            != NVDLAModel(atomic_input_channels=32).fingerprint()
        )
        assert (
            NVDLAModel().fingerprint()
            != NVDLAModel(atomic_output_kernels=16).fingerprint()
        )
        assert (
            NVDLAModel().fingerprint()
            != NVDLAModel(frequency_hz=2e9).fingerprint()
        )
        assert (
            FlexNeRFer().fingerprint()
            != FlexNeRFer(FlexNeRFerConfig(frequency_hz=1e9)).fingerprint()
        )

    def test_distinct_devices_have_distinct_fingerprints(self):
        prints = {
            name: get_device(name).fingerprint()
            for name in ("flexnerfer", "neurex", "tpu", "nvdla", "rtx-2080-ti")
        }
        assert len(set(prints.values())) == len(prints)

    def test_workload_edit_changes_digest(self):
        base = small_workload()
        assert workload_digest(base) == workload_digest(small_workload())
        bigger = small_workload(
            config=FrameConfig(image_width=200, image_height=100)
        )
        assert workload_digest(base) != workload_digest(bigger)
        assert workload_digest(base) != workload_digest(base.pruned(0.5))
        assert workload_digest(base) != workload_digest(
            base.with_precision(Precision.INT4)
        )

    def test_knobs_partition_keys(self):
        base = make_key()
        assert (
            base.digest
            != StoreKey(base.device_fingerprint, base.workload_digest, "INT8", 0.0).digest
        )
        assert (
            base.digest
            != StoreKey(base.device_fingerprint, base.workload_digest, "INT16", 0.5).digest
        )


class TestStoreBasics:
    def test_get_missing_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get(make_key()) is None

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        report = render_small()
        key = make_key()
        path = put_report(store, key, report)
        assert path.exists()
        loaded = get_report(store, key)
        assert loaded is not None
        assert loaded.latency_s == report.latency_s
        assert loaded.energy_j == report.energy_j

    def test_unwritable_store_degrades_to_cold(self, capsys):
        store = ResultStore("/dev/null/not-a-dir")
        report = render_small()
        put_report(store, make_key(), report)  # must not raise
        assert "not writable" in capsys.readouterr().err
        put_report(store, make_key("b"), report)  # warning printed only once
        assert capsys.readouterr().err == ""
        assert store.get(make_key()) is None
        assert store.stats().entries == 0
        # A store-attached engine still simulates correctly.
        engine = SweepEngine(store=store)
        rows = engine.run(SPEC)
        assert rows and engine.stats.render_calls > 0

    def test_canonical_digest_rejects_unstable_values(self):
        from repro.core.device import canonical_digest

        with pytest.raises(TypeError):
            canonical_digest({"modes": {"INT8", "INT4"}})  # a set
        with pytest.raises(TypeError):
            canonical_digest(object())

    def test_corrupt_entry_is_a_miss_and_healed(self, tmp_path):
        store = ResultStore(tmp_path)
        key = make_key()
        path = put_report(store, key, render_small())
        path.write_text("{ truncated")
        assert store.get(key) is None
        assert not path.exists()  # dropped so the next put heals the slot
        put_report(store, key, render_small())
        assert get_report(store, key) is not None

    def test_stats_clear_and_evict(self, tmp_path):
        store = ResultStore(tmp_path)
        report = render_small()
        paths = [put_report(store, make_key(str(i)), report) for i in range(5)]
        # Distinct mtimes so eviction order is deterministic.
        for age, path in enumerate(reversed(paths)):
            stamp = os.path.getmtime(path) - 100 * age
            os.utime(path, (stamp, stamp))
        stats = store.stats()
        assert stats.entries == 5
        assert stats.total_bytes > 0

        assert store.evict(max_entries=3) == 2
        assert store.stats().entries == 3
        assert not paths[0].exists() and not paths[1].exists()  # oldest two

        assert store.evict(max_age_s=150.0) == 1  # only paths[2] is older
        assert store.stats().entries == 2

        assert store.clear() == 2
        assert store.stats().entries == 0

    def test_evict_rejects_negative_bounds(self, tmp_path):
        store = ResultStore(tmp_path)
        put_report(store, make_key(), render_small())
        with pytest.raises(ValueError, match=">= 0"):
            store.evict(max_entries=-1)
        with pytest.raises(ValueError, match=">= 0"):
            store.evict(max_age_s=-5.0)
        assert store.stats().entries == 1  # nothing was doomed

    def test_evict_drops_other_code_digests(self, tmp_path, use_code_digest):
        store = ResultStore(tmp_path)
        use_code_digest(DIGEST_A)
        put_report(store, make_key(), render_small())
        use_code_digest(DIGEST_B)
        put_report(store, make_key(), render_small())
        assert store.evict() == 1
        assert store.stats().entries == 1
        assert store.stats().stale_entries == 0


class TestExperimentResultTier:
    def make_result_key(self, salt="a"):
        return ExperimentResultKey(
            experiment_id="fig99",
            params_fingerprint=f"params-{salt}",
            devices_digest=f"devices-{salt}",
        )

    def test_key_components_partition_entries(self):
        base = self.make_result_key()
        for field in ("experiment_id", "params_fingerprint", "devices_digest"):
            assert base.digest != dataclasses.replace(base, **{field: "b"}).digest

    def test_payload_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = self.make_result_key()
        assert store.get(key) is None
        payload = {"result": {"rows": [{"x": 1.25}]}, "table": "x\n1.25"}
        store.put(key, payload)
        assert store.get(key) == payload

    def test_frame_and_result_entries_coexist(self, tmp_path):
        store = ResultStore(tmp_path)
        put_report(store, make_key(), render_small())
        store.put(self.make_result_key(), {"table": "t", "result": {}})
        assert store.stats().entries == 2
        assert get_report(store, make_key()) is not None
        assert store.get(self.make_result_key()) is not None

    def test_overrides_change_the_key_deterministically(self):
        from repro.experiments.registry import EXPERIMENTS

        exp = EXPERIMENTS["fig19"]
        base = experiment_result_key(exp)
        overridden = experiment_result_key(exp, {"pruning_ratios": (0.0,)})
        assert base.digest != overridden.digest
        assert (
            experiment_result_key(exp, {"pruning_ratios": (0.0,)}).digest
            == overridden.digest
        )


#: One key per entry kind, each with a payload shaped like its real one.
KIND_CASES = (
    (make_key(), {"device": "d", "latency_s": 0.1}),
    (ExperimentResultKey("fig99", "params", "devices"), {"table": "t", "result": {}}),
    (PlanPointKey("space", "point"), {"point": {}, "metrics": {"p95": 0.5}}),
    (GridAssetKey("scene", "grid"), {"tables": [[1.0, 2.5e-17]]}),
)


#: Digests of ``canonical_digest(astuple(key))`` per kind; the shared key
#: protocol must keep every address stable.
DIGEST_PINS = (
    (
        StoreKey("fp", "wl", "INT8", 0.5),
        "02b20d606a865b63f599f0496e50087c778c8d6a",
    ),
    (
        StoreKey("fp", "wl", None, 0.0),
        "2c758c5b55abb737b207858f2fd39abca1cc335c",
    ),
    (
        ExperimentResultKey("fig01", "pf", "dd"),
        "48cd34f9842c34a4c1390a0cdffa592e2f2ff3d9",
    ),
    (
        PlanPointKey("sd", "pd"),
        "76ac9504803e568f696bf91c13636e9b4564d6cf",
    ),
    (
        GridAssetKey("sc", "gr"),
        "a6128595f29761e50ef2aa7b9d270bf5df7a33ce",
    ),
)


class TestKeyProtocol:
    @pytest.mark.parametrize(
        "key,expected",
        DIGEST_PINS,
        ids=["frame", "frame-native", "result", "plan", "asset"],
    )
    def test_digest_formula_is_pinned(self, key, expected):
        assert key.digest == expected

    @pytest.mark.parametrize(
        "key,payload", KIND_CASES, ids=[key.kind for key, _ in KIND_CASES]
    )
    def test_miss_put_get_round_trip(self, tmp_path, key, payload):
        store = ResultStore(tmp_path)
        assert store.get(key) is None
        path = store.put(key, payload)
        assert path == store.path_for(key)
        assert path.parent.parent.name == key.kind
        assert store.get(key) == payload
        document = json.loads(path.read_text())
        assert set(document) == {"code_digest", "created_s", "key", "payload"}
        assert document["code_digest"] == code_digest()
        assert document["key"] == dataclasses.asdict(key)

    @pytest.mark.parametrize(
        "key,payload", KIND_CASES, ids=[key.kind for key, _ in KIND_CASES]
    )
    def test_corrupt_entry_is_a_miss_and_unlinked(self, tmp_path, key, payload):
        store = ResultStore(tmp_path)
        path = store.put(key, payload)
        path.write_text("{ truncated")
        assert store.get(key) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "key,payload", KIND_CASES, ids=[key.kind for key, _ in KIND_CASES]
    )
    def test_document_code_digest_mismatch_is_a_miss(self, tmp_path, key, payload):
        store = ResultStore(tmp_path)
        path = store.put(key, payload)
        document = json.loads(path.read_text())
        document["code_digest"] = DIGEST_B
        path.write_text(json.dumps(document))
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "key,payload", KIND_CASES, ids=[key.kind for key, _ in KIND_CASES]
    )
    def test_source_edit_misses_every_tier(
        self, tmp_path, use_code_digest, key, payload
    ):
        store = ResultStore(tmp_path)
        use_code_digest(DIGEST_A)
        path = store.put(key, payload)
        assert path.relative_to(tmp_path).parts[0] == DIGEST_A[:16]
        assert store.get(key) == payload
        use_code_digest(DIGEST_B)
        assert store.get(key) is None
        assert (store.stats().entries, store.stats().stale_entries) == (0, 1)


SPEC = SweepSpec(
    devices=("flexnerfer", "neurex"),
    models=("instant-ngp",),
    precisions=(None, Precision.INT8),
    pruning_ratios=(0.0, 0.5),
    base_config=SMALL,
)


class TestEngineIntegration:
    def test_warm_engine_skips_simulation_bit_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = SweepEngine(store=store)
        cold_rows = cold.run(SPEC)
        assert cold.stats.render_calls > 0
        assert cold.stats.store_hits == 0
        assert cold.stats.store_misses == cold.stats.render_calls

        warm = SweepEngine(store=store)
        warm_rows = warm.run(SPEC)
        assert warm.stats.render_calls == 0
        assert warm.stats.store_hits == cold.stats.render_calls
        for a, b in zip(cold_rows, warm_rows):
            assert a.report.latency_s == b.report.latency_s
            assert a.report.energy_j == b.report.energy_j
            assert a.report.trace.records == b.report.trace.records

    def test_undecodable_frame_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        SweepEngine(store=store).run(SPEC)
        frames = tmp_path / code_digest()[:16] / "frame"
        for path in frames.rglob("*.json"):
            document = json.loads(path.read_text())
            document["payload"] = {"latency_s": "not a report"}
            path.write_text(json.dumps(document))
        engine = SweepEngine(store=store)
        rows = engine.run(SPEC)  # must not raise
        assert engine.stats.store_hits == 0
        assert engine.stats.render_calls == engine.stats.store_misses > 0
        assert len(rows) == len(SweepEngine().run(SPEC))

    def test_independent_engines_address_content_at_one_path(self, tmp_path):
        # The entry's file name is its key's digest, and two engines that
        # simulate the same content write it at the same relative path.
        entries = []
        for name in ("a", "b"):
            root = tmp_path / name
            SweepEngine(store=ResultStore(root)).frame_report(
                "flexnerfer", "instant-ngp", config=SMALL, precision=Precision.INT8
            )
            [path] = sorted(root.rglob("frame/*/*.json"))
            key = StoreKey(**json.loads(path.read_text())["key"])
            assert path.stem == key.digest
            entries.append(path.relative_to(root))
        assert entries[0] == entries[1]

    def test_no_store_engine_is_unaffected(self):
        engine = SweepEngine()
        engine.run(SPEC)
        assert engine.stats.store_hits == 0
        assert engine.stats.store_misses == 0
        assert engine.stats.render_calls == engine.stats.report_misses

    def test_attach_store_mid_life(self, tmp_path):
        engine = SweepEngine()
        engine.run(SPEC)
        engine.attach_store(ResultStore(tmp_path))
        engine.clear()
        engine.run(SPEC)  # re-simulates, now writing back
        fresh = SweepEngine(store=ResultStore(tmp_path))
        fresh.run(SPEC)
        assert fresh.stats.render_calls == 0

    def test_fleet_simulator_reads_through_store(self, tmp_path):
        from repro.serve.fleet import FleetSimulator
        from repro.serve.request import PoissonStream, Scenario, ScenarioMix

        mix = ScenarioMix(
            scenarios=(Scenario("instant-ngp", scene="lego", width=100, height=100),),
            weights=(1.0,),
        )
        stream = PoissonStream(rate_rps=20.0, duration_s=5.0, mix=mix, sla_s=0.5)
        requests = stream.generate(seed=0)

        store = ResultStore(tmp_path)
        cold_engine = SweepEngine(store=store)
        cold = FleetSimulator(("flexnerfer",), engine=cold_engine).run(requests)
        assert cold_engine.stats.render_calls > 0

        warm_engine = SweepEngine(store=store)
        warm = FleetSimulator(("flexnerfer",), engine=warm_engine).run(requests)
        assert warm_engine.stats.render_calls == 0
        assert warm.p95_latency_s == cold.p95_latency_s
        assert warm.energy_per_request_j == cold.energy_per_request_j


class TestConcurrency:
    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        report = render_small()
        keys = [make_key(str(i)) for i in range(4)]
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(25):
                    key = keys[(seed + i) % len(keys)]
                    put_report(store, key, report)
                    loaded = get_report(store, key)
                    # A concurrent get may race a replace but never sees a
                    # partial file: it is either a miss or a full report.
                    if loaded is not None:
                        assert loaded.latency_s == report.latency_s
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert not errors
        stats = store.stats()
        assert stats.entries == len(keys)
        for key in keys:
            assert get_report(store, key).latency_s == report.latency_s

    def test_concurrent_engines_share_one_store(self, tmp_path):
        store = ResultStore(tmp_path)
        barrier = threading.Barrier(4)
        results = []

        def run_one(_: int):
            engine = SweepEngine(store=store)
            barrier.wait()
            results.append(engine.run(SPEC))

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(run_one, range(4)))
        reference = results[0]
        for rows in results[1:]:
            for a, b in zip(reference, rows):
                assert a.report.latency_s == b.report.latency_s
                assert a.report.energy_j == b.report.energy_j
        # The store ends up consistent and warm for a fresh reader.
        fresh = SweepEngine(store=store)
        fresh.run(SPEC)
        assert fresh.stats.render_calls == 0


class TestDefaultLocation:
    def test_env_var_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "custom"))
        assert ResultStore.default().root == tmp_path / "custom"

    def test_checkout_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        root = ResultStore.default().root
        assert root.name == ".repro-store"
        assert (root.parent / "pyproject.toml").exists()


class TestCodeDigest:
    @pytest.fixture
    def package_copy(self, tmp_path):
        import repro

        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).parent,
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def test_identical_copy_has_the_same_digest(self, package_copy):
        assert _source_digest(package_copy) == code_digest()

    def test_one_byte_edit_changes_the_digest(self, package_copy):
        module = package_copy / "experiments" / "fig03_runtime_breakdown.py"
        source = module.read_bytes()
        module.write_bytes(source.replace(b"gemm_fraction", b"gemm_fractioN", 1))
        assert len(module.read_bytes()) == len(source)
        assert _source_digest(package_copy) != code_digest()

    def test_renaming_a_module_changes_the_digest(self, package_copy):
        module = package_copy / "experiments" / "fig03_runtime_breakdown.py"
        module.rename(module.with_name("fig03_renamed.py"))
        assert _source_digest(package_copy) != code_digest()
