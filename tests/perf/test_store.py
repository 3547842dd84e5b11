"""Correctness of the persistent result store (repro.perf.store).

Pins the store's core promises for its three entry kinds (result, plan,
asset): one key protocol addresses every kind, a source edit moves the
store to a new code-digest partition, payloads reload bit-exactly,
concurrent writers never corrupt the store, and eviction / clearing behave
as documented.  A store-backed sweep engine keeps frame reports in memory:
it touches the store only to fit probe grids through the asset tier.
"""

import dataclasses
import json
import math
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
    _source_digest,
    code_digest,
    experiment_result_key,
)
from repro.sim.sweep import SweepEngine, SweepSpec, workload_fingerprint
from repro.sparse.formats import Precision

SMALL = FrameConfig(image_width=100, image_height=100)


def small_workload(model="instant-ngp", config=SMALL):
    return get_model(model).build_workload(config)


#: A result-tier payload shaped like the CLI's (result JSON + rendered table).
PAYLOAD = {"result": {"rows": [{"latency_s": 0.1, "precision": None}]}, "table": "t"}

DIGEST_A, DIGEST_B = "a" * 64, "b" * 64


def make_key(salt="a"):
    return ExperimentResultKey(
        experiment_id="fig99",
        params_fingerprint=f"params-{salt}",
        devices_digest=f"devices-{salt}",
    )


class TestSerialization:
    #: Doubles whose shortest repr is long, tiny, huge, signed or subnormal.
    AWKWARD = [0.1, 1 / 3, 2.5e-17, 1.7976931348623157e308, -0.0, 5e-324]

    def test_round_trip_is_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_key(), {"values": self.AWKWARD})
        loaded = store.get(make_key())["values"]
        assert [v.hex() for v in loaded] == [v.hex() for v in self.AWKWARD]
        assert math.copysign(1.0, loaded[4]) == -1.0

    def test_round_trip_none_precision(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(make_key(), PAYLOAD)
        loaded = store.get(make_key())
        assert loaded == PAYLOAD
        assert loaded["result"]["rows"][0]["precision"] is None


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

    def test_workload_edit_changes_fingerprint(self):
        # The engine's report tier keys on this workload identity.
        base = small_workload()
        assert workload_fingerprint(base) == workload_fingerprint(small_workload())
        bigger = small_workload(
            config=FrameConfig(image_width=200, image_height=100)
        )
        assert workload_fingerprint(base) != workload_fingerprint(bigger)
        assert workload_fingerprint(base) != workload_fingerprint(base.pruned(0.5))
        assert workload_fingerprint(base) != workload_fingerprint(
            base.with_precision(Precision.INT4)
        )

    def test_knobs_partition_keys(self):
        engine = SweepEngine()
        workload = small_workload()
        base = engine.report_key("flexnerfer", workload, Precision.INT16, 0.0)
        assert base != engine.report_key("flexnerfer", workload, Precision.INT8, 0.0)
        assert base != engine.report_key("flexnerfer", workload, Precision.INT16, 0.5)
        # NeuRex ignores both knobs: every point lands on one key.
        assert engine.report_key(
            "neurex", workload, Precision.INT8, 0.5
        ) == engine.report_key("neurex", workload, None, 0.0)


class TestStoreBasics:
    def test_get_missing_is_none(self, tmp_path):
        assert ResultStore(tmp_path).get(make_key()) is None

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = make_key()
        path = store.put(key, PAYLOAD)
        assert path.exists()
        assert store.get(key) == PAYLOAD

    def test_unwritable_store_degrades_to_cold(self, capsys):
        store = ResultStore("/dev/null/not-a-dir")
        store.put(make_key(), PAYLOAD)  # must not raise
        assert "not writable" in capsys.readouterr().err
        store.put(make_key("b"), PAYLOAD)  # warning printed only once
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
        path = store.put(key, PAYLOAD)
        path.write_text("{ truncated")
        assert store.get(key) is None
        assert not path.exists()  # dropped so the next put heals the slot
        store.put(key, PAYLOAD)
        assert store.get(key) == PAYLOAD

    def test_stats_clear_and_evict(self, tmp_path):
        store = ResultStore(tmp_path)
        paths = [store.put(make_key(str(i)), PAYLOAD) for i in range(5)]
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
        store.put(make_key(), PAYLOAD)
        with pytest.raises(ValueError, match=">= 0"):
            store.evict(max_entries=-1)
        with pytest.raises(ValueError, match=">= 0"):
            store.evict(max_age_s=-5.0)
        assert store.stats().entries == 1  # nothing was doomed

    def test_evict_drops_other_code_digests(self, tmp_path, use_code_digest):
        store = ResultStore(tmp_path)
        use_code_digest(DIGEST_A)
        store.put(make_key(), PAYLOAD)
        use_code_digest(DIGEST_B)
        store.put(make_key(), PAYLOAD)
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

    def test_every_kind_coexists(self, tmp_path):
        store = ResultStore(tmp_path)
        for key, payload in KIND_CASES:
            store.put(key, payload)
        assert store.stats().entries == len(KIND_CASES)
        for key, payload in KIND_CASES:
            assert store.get(key) == payload
        kinds = {p.parent.parent.name for p in (tmp_path / code_digest()[:16]).rglob("*.json")}
        assert kinds == {"result", "plan", "asset"}

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
    (ExperimentResultKey("fig99", "params", "devices"), {"table": "t", "result": {}}),
    (PlanPointKey("space", "point"), {"point": {}, "metrics": {"p95": 0.5}}),
    (GridAssetKey("scene", "grid"), {"tables": [[1.0, 2.5e-17]]}),
)


#: Digests of ``canonical_digest(astuple(key))`` per kind; the shared key
#: protocol must keep every address stable.
DIGEST_PINS = (
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
        ids=["result", "plan", "asset"],
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


def count_lattice_queries(monkeypatch):
    """Count scene-field lattice queries, i.e. cold (not decoded) grid fits."""
    from repro.nerf.scenes import SyntheticScene

    calls = []
    lattice_fields = SyntheticScene.lattice_fields

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return lattice_fields(self, *args, **kwargs)

    monkeypatch.setattr(SyntheticScene, "lattice_fields", counting)
    return calls


class TestEngineIntegration:
    def test_frame_report_never_touches_the_store(self, tmp_path, monkeypatch):
        def bomb(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a frame simulation reached the store")

        monkeypatch.setattr(ResultStore, "get", bomb)
        monkeypatch.setattr(ResultStore, "put", bomb)
        store = ResultStore(tmp_path)
        engine = SweepEngine(store=store)
        engine.run(SPEC)
        engine.frame_report("flexnerfer", "instant-ngp", config=SMALL)
        assert engine.stats.render_calls > 0
        assert store.stats().entries == 0

    def test_fresh_engine_resimulates_bit_exactly(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = SweepEngine(store=store)
        cold_rows = cold.run(SPEC)
        assert cold.stats.render_calls > 0

        warm = SweepEngine(store=store)
        warm_rows = warm.run(SPEC)
        assert warm.stats.render_calls == cold.stats.render_calls
        for a, b in zip(cold_rows, warm_rows):
            assert a.report.latency_s == b.report.latency_s
            assert a.report.energy_j == b.report.energy_j
            assert a.report.trace.records == b.report.trace.records

    def test_independent_engines_address_content_at_one_path(self, tmp_path):
        # The entry's file name is its key's digest, and two engines that
        # fit the same grid write it at the same relative path.
        entries = []
        for name in ("a", "b"):
            root = tmp_path / name
            SweepEngine(store=ResultStore(root)).probe("lego", 8, 4)
            [path] = sorted(root.rglob("asset/*/*.json"))
            key = GridAssetKey(**json.loads(path.read_text())["key"])
            assert path.stem == key.digest
            entries.append(path.relative_to(root))
        assert entries[0] == entries[1]

    def test_no_store_engine_is_unaffected(self):
        engine = SweepEngine()
        engine.run(SPEC)
        renders = engine.stats.render_calls
        assert renders == engine.stats.report_misses > 0
        engine.run(SPEC)  # every point a report-tier hit
        assert engine.stats.render_calls == engine.stats.report_misses == renders

    def test_attach_store_mid_life(self, tmp_path, monkeypatch):
        fits = count_lattice_queries(monkeypatch)
        engine = SweepEngine()
        engine.probe("lego", 8, 4)
        engine.attach_store(ResultStore(tmp_path))
        engine.clear()
        engine.probe("lego", 8, 4)  # re-fits, now writing the asset back
        cold_fits = len(fits)
        assert cold_fits > 0
        fresh = SweepEngine(store=ResultStore(tmp_path))
        fresh.probe("lego", 8, 4)
        assert len(fits) == cold_fits  # decoded, not fitted

    def test_fleet_simulator_leaves_the_store_empty(self, tmp_path):
        from repro.serve.fleet import FleetSimulator
        from repro.serve.request import PoissonStream, Scenario, ScenarioMix

        mix = ScenarioMix(
            scenarios=(Scenario("instant-ngp", scene="lego", width=100, height=100),),
            weights=(1.0,),
        )
        stream = PoissonStream(rate_rps=20.0, duration_s=5.0, mix=mix, sla_s=0.5)
        requests = stream.generate(seed=0)

        store = ResultStore(tmp_path)
        stored_engine = SweepEngine(store=store)
        stored = FleetSimulator(("flexnerfer",), engine=stored_engine).run(requests)
        assert stored_engine.stats.render_calls > 0
        assert store.stats().entries == 0

        plain = FleetSimulator(("flexnerfer",), engine=SweepEngine()).run(requests)
        assert stored == plain


class TestConcurrency:
    def test_concurrent_writers_do_not_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        keys = [make_key(str(i)) for i in range(4)]
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(25):
                    key = keys[(seed + i) % len(keys)]
                    store.put(key, PAYLOAD)
                    loaded = store.get(key)
                    # A concurrent get may race a replace but never sees a
                    # partial file: it is either a miss or a full payload.
                    if loaded is not None:
                        assert loaded == PAYLOAD
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert not errors
        stats = store.stats()
        assert stats.entries == len(keys)
        for key in keys:
            assert store.get(key) == PAYLOAD

    def test_concurrent_engines_share_one_store(self, tmp_path, monkeypatch):
        import numpy as np

        store = ResultStore(tmp_path)
        barrier = threading.Barrier(4)
        results = []

        def probe_one(_: int):
            engine = SweepEngine(store=store)
            barrier.wait()
            results.append(engine.probe("lego", 8, 4)[0].grid.tables)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(probe_one, range(4)))
        reference = results[0]
        for tables in results[1:]:
            for a, b in zip(reference, tables, strict=True):
                np.testing.assert_array_equal(a, b)
        # The store ends up consistent and warm for a fresh reader.
        fits = count_lattice_queries(monkeypatch)
        fresh = SweepEngine(store=store)
        for a, b in zip(reference, fresh.probe("lego", 8, 4)[0].grid.tables, strict=True):
            np.testing.assert_array_equal(a, b)
        assert fits == []


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
