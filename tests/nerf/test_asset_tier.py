"""The result store's asset tier makes repeat hash-grid fits zero-cost.

``InstantNGPRenderer.fit_to_scene(scene, store=...)`` writes the fitted
tables into a content-addressed asset entry keyed on (scene fingerprint,
grid-config fingerprint), one base64 string of raw float64 bytes per
level.  A warm fit must be a pure decode: bit-identical tables,
and *zero* queries of the scene fields.  A payload that does not fit the
grid is a miss: the fit runs again and overwrites it.
"""

import base64

import numpy as np
import pytest

from repro.nerf.hashgrid import HashGridConfig
from repro.nerf.rays import Camera
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
        for entry, table in zip(payload["tables"], renderer.grid.tables):
            assert base64.b64decode(entry) == table.astype("<f8").tobytes()

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

        for name in ("lattice_fields", "fields", "density", "color"):
            monkeypatch.setattr(type(scene), name, bomb)
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


def _valid_entry(level, extra_rows=0):
    rows = InstantNGPRenderer(CONFIG).grid._level_table_size(level) + extra_rows
    return base64.b64encode(np.zeros((rows, CONFIG.features_per_level)).tobytes()).decode()


MALFORMED = {
    "too-few-levels": [_valid_entry(level) for level in range(CONFIG.num_levels - 1)],
    "too-many-levels": [_valid_entry(0)] * (CONFIG.num_levels + 1),
    "float-lists": [[1.0, 2.0]] * CONFIG.num_levels,
    "non-string": [_valid_entry(0), 7, None, {"b": 1}],
    "invalid-base64": ["not base64!"] + [_valid_entry(level) for level in range(1, CONFIG.num_levels)],
    "short-bytes": [base64.b64encode(b"\0" * 16).decode()] * CONFIG.num_levels,
    "long-bytes": [_valid_entry(level, extra_rows=1) for level in range(CONFIG.num_levels)],
}


class TestMalformedAsset:
    """A stored payload that does not fit the grid is a miss, then refitted."""

    @pytest.mark.parametrize("tables", MALFORMED.values(), ids=MALFORMED.keys())
    def test_refits_and_overwrites(self, store, tables):
        scene = get_scene("mic")
        reference = InstantNGPRenderer(CONFIG)
        reference.fit_to_scene(scene)
        key = reference.asset_key(scene)
        store.put(key, {"tables": tables})

        warm = InstantNGPRenderer(CONFIG)
        warm.fit_to_scene(scene, store=store)
        for got, want in zip(warm.grid.tables, reference.grid.tables, strict=True):
            np.testing.assert_array_equal(got, want)
        warm.render(Camera(width=8, height=8, focal=9.6), num_samples=8)

        again = InstantNGPRenderer(CONFIG)
        assert again._decode_tables(store.get(key)) is not None
