"""The result store's asset tier makes repeat hash-grid fits zero-cost.

``InstantNGPRenderer.fit_to_scene(scene, store=...)`` writes the fitted
tables into a content-addressed asset entry keyed on (scene fingerprint,
grid-config fingerprint, store schema).  A warm fit must be a pure JSON
load: bit-identical tables, and *zero* queries of the scene fields.
"""

import numpy as np
import pytest

from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.renderer import InstantNGPRenderer
from repro.nerf.scenes import get_scene
from repro.perf.store import GridAssetKey, ResultStore

CONFIG = HashGridConfig(
    num_levels=4,
    features_per_level=4,
    log2_table_size=10,
    base_resolution=4,
    max_resolution=16,
)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestGridAssetKey:
    def test_digest_is_deterministic(self):
        a = GridAssetKey(scene_fingerprint="s", grid_fingerprint="g")
        b = GridAssetKey(scene_fingerprint="s", grid_fingerprint="g")
        assert a.digest == b.digest

    def test_digest_distinguishes_scene_and_grid(self):
        base = GridAssetKey(scene_fingerprint="s", grid_fingerprint="g")
        assert base.digest != GridAssetKey("s2", "g").digest
        assert base.digest != GridAssetKey("s", "g2").digest

    def test_round_trip(self, store):
        key = GridAssetKey(scene_fingerprint="s", grid_fingerprint="g")
        assert store.get(key) is None
        store.put(key, {"tables": [[1.0, 2.0]]})
        assert store.get(key) == {"tables": [[1.0, 2.0]]}


class TestWarmFit:
    def test_cold_fit_populates_the_asset_tier(self, store):
        scene = get_scene("mic")
        renderer = InstantNGPRenderer(CONFIG)
        renderer.fit_to_scene(scene, store=store)
        payload = store.get(renderer.asset_key(scene))
        assert payload is not None
        assert len(payload["tables"]) == CONFIG.num_levels

    def test_warm_fit_is_bit_identical(self, store):
        scene = get_scene("mic")
        cold = InstantNGPRenderer(CONFIG)
        cold.fit_to_scene(scene, store=store)
        warm = InstantNGPRenderer(CONFIG)
        warm.fit_to_scene(scene, store=store)
        for cold_table, warm_table in zip(cold.grid.tables, warm.grid.tables):
            np.testing.assert_array_equal(cold_table, warm_table)

    def test_warm_fit_never_queries_the_scene(self, store, monkeypatch):
        scene = get_scene("mic")
        InstantNGPRenderer(CONFIG).fit_to_scene(scene, store=store)

        def bomb(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm fit queried the scene fields")

        monkeypatch.setattr(type(scene), "fields", bomb)
        warm = InstantNGPRenderer(CONFIG)
        warm.fit_to_scene(scene, store=store)
        assert warm.scene is scene

    def test_different_grid_config_misses(self, store):
        scene = get_scene("mic")
        InstantNGPRenderer(CONFIG).fit_to_scene(scene, store=store)
        other_config = HashGridConfig(
            num_levels=4,
            features_per_level=4,
            log2_table_size=11,
            base_resolution=4,
            max_resolution=16,
        )
        other = InstantNGPRenderer(other_config)
        assert store.get(other.asset_key(scene)) is None

    def test_different_scene_misses(self, store):
        InstantNGPRenderer(CONFIG).fit_to_scene(get_scene("mic"), store=store)
        probe = InstantNGPRenderer(CONFIG)
        assert store.get(probe.asset_key(get_scene("lego"))) is None

    def test_storeless_fit_still_works(self):
        renderer = InstantNGPRenderer(CONFIG)
        renderer.fit_to_scene(get_scene("mic"))
        assert any(np.any(table) for table in renderer.grid.tables)
