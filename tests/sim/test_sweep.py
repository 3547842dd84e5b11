"""Tests for the cached SweepEngine and its reducers."""

import pytest

from repro.experiments import fig19_speedup_energy
from repro.experiments._stats import gain_geomean, geomean
from repro.nerf.models import FrameConfig
from repro.sim.sweep import (
    SweepEngine,
    SweepSpec,
    aggregate,
    index_rows,
    workload_fingerprint,
)
from repro.sparse.formats import Precision

SMALL_CONFIG = FrameConfig(image_width=64, image_height=64, batch_size=1024)


@pytest.fixture
def engine():
    return SweepEngine()


class TestWorkloadCache:
    def test_same_model_and_config_built_once(self, engine):
        first = engine.workload("instant-ngp", SMALL_CONFIG)
        second = engine.workload("instant-ngp", SMALL_CONFIG)
        assert first is second
        assert engine.stats.workload_misses == 1
        assert engine.stats.workload_hits == 1

    def test_different_config_rebuilds(self, engine):
        first = engine.workload("instant-ngp", SMALL_CONFIG)
        other = engine.workload(
            "instant-ngp", FrameConfig(image_width=32, image_height=32)
        )
        assert first is not other
        assert engine.stats.workload_misses == 2

    def test_fingerprint_distinguishes_ops(self, engine):
        base = engine.workload("instant-ngp", SMALL_CONFIG)
        assert workload_fingerprint(base) == workload_fingerprint(base)
        assert workload_fingerprint(base) != workload_fingerprint(
            base.pruned(0.5)
        )


class TestReportCache:
    def test_second_identical_sweep_is_free(self, engine):
        spec = SweepSpec(
            devices=("flexnerfer", "neurex"),
            models=("instant-ngp",),
            precisions=(Precision.INT16, Precision.INT8),
            pruning_ratios=(0.0, 0.5),
            base_config=SMALL_CONFIG,
        )
        first = engine.run(spec)
        calls_after_first = engine.stats.render_calls
        second = engine.run(spec)
        assert engine.stats.render_calls == calls_after_first  # zero new renders
        for a, b in zip(first, second):
            assert a.report is b.report

    def test_capability_flags_collapse_redundant_points(self, engine):
        spec = SweepSpec(
            devices=("neurex",),
            models=("instant-ngp",),
            precisions=(Precision.INT16, Precision.INT8, Precision.INT4),
            pruning_ratios=(0.0, 0.5, 0.9),
            base_config=SMALL_CONFIG,
        )
        rows = engine.run(spec)
        assert len(rows) == 9
        # One physical simulation serves all nine requested points.
        assert engine.stats.render_calls == 1
        assert len({id(row.report) for row in rows}) == 1
        assert all(row.effective_precision is Precision.INT16 for row in rows)
        assert all(row.effective_pruning == 0.0 for row in rows)

    def test_non_batching_device_rows_keep_requested_batch(self, engine):
        rows = engine.run(
            SweepSpec(
                devices=("tpu",),
                models=("nerf",),
                batch_sizes=(2048, 8192),
                base_config=SMALL_CONFIG,
            )
        )
        # Rows stay distinguishable by the requested batch size even though
        # the device ignores batching and both points share one simulation.
        assert [row.batch_size for row in rows] == [2048, 8192]
        assert engine.stats.render_calls == 1

    def test_zero_batch_is_not_replaced_by_the_default(self, engine):
        spec = SweepSpec(devices=("flexnerfer",), models=("nerf",), batch_sizes=(0,))
        assert spec.resolve_config(None, None) == spec.base_config
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            spec.resolve_config(None, 0)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            engine.run(spec)

    def test_gpu_is_never_asked_for_unsupported_knobs(self, engine):
        rows = engine.run(
            SweepSpec(
                devices=("rtx-2080-ti",),
                models=("nerf",),
                precisions=(Precision.INT16, Precision.INT4),
                pruning_ratios=(0.0, 0.9),
                base_config=SMALL_CONFIG,
            )
        )
        assert len(rows) == 4
        assert engine.stats.render_calls == 1

    def test_each_unique_key_is_simulated_once(self, engine):
        rows = engine.run(
            SweepSpec(
                devices=("flexnerfer", "neurex", "tpu"),
                models=("nerf", "instant-ngp"),
                precisions=(Precision.INT16, Precision.INT8),
                pruning_ratios=(0.0, 0.5),
                base_config=SMALL_CONFIG,
            )
        )
        # Unique cache keys: flexnerfer 2 models x 2 precisions x 2 pruning
        # = 8; neurex and tpu collapse both knobs = 2 each.  Every other
        # requested point is an in-memory hit.
        assert len(rows) == 24
        assert engine.stats.render_calls == 12
        assert engine.stats.report_hits == 24 - 12

    def test_frame_report_single_point(self, engine):
        report = engine.frame_report(
            "flexnerfer", "nerf", config=SMALL_CONFIG, precision=Precision.INT8
        )
        again = engine.frame_report(
            "flexnerfer", "nerf", config=SMALL_CONFIG, precision=Precision.INT8
        )
        assert report is again
        assert engine.stats.render_calls == 1

    def test_reregistered_device_is_not_served_stale(self, engine, monkeypatch):
        """Re-registering a used name replaces the engine's device and reports."""
        from repro.core.accelerator import FlexNeRFer
        from repro.core.config import FlexNeRFerConfig
        from repro.core.device import DEVICE_REGISTRY, get_device, register_device

        # Restores the built-in factory after the test re-registers the name.
        monkeypatch.setitem(DEVICE_REGISTRY, "flexnerfer", DEVICE_REGISTRY["flexnerfer"])
        before = engine.frame_report("flexnerfer", "nerf", config=SMALL_CONFIG)
        register_device(
            "flexnerfer",
            lambda: FlexNeRFer(FlexNeRFerConfig(frequency_hz=400e6)),
            overwrite=True,
        )
        after = engine.frame_report("flexnerfer", "nerf", config=SMALL_CONFIG)
        expected = get_device("flexnerfer").render_frame(
            engine.workload("nerf", SMALL_CONFIG)
        )
        assert after.latency_s == expected.latency_s
        assert after.latency_s > before.latency_s
        assert engine.device("flexnerfer").config.frequency_hz == 400e6


class TestProbeTier:
    def test_each_scene_fitted_and_each_view_prepared_once(self, engine):
        renderer, plan = engine.probe("lego", 12, 6)
        again, same_plan = engine.probe("lego", 12, 6)
        assert again is renderer and same_plan is plan
        other_renderer, other_plan = engine.probe("lego", 8, 6)
        assert other_renderer is renderer and other_plan is not plan
        assert engine.probe("mic", 12, 6)[0] is not renderer
        upper_renderer, upper_plan = engine.probe("LEGO", 12, 6)
        assert upper_renderer is renderer and upper_plan is plan
        engine.clear()
        assert engine.probe("lego", 12, 6)[0] is not renderer

    def test_bad_sample_counts_raise_one_line_errors(self, engine):
        for samples in (float("nan"), 2.5, True):
            with pytest.raises(ValueError, match="num_samples must be >= 1"):
                engine.probe("lego", 8, samples)

    def test_concurrent_probes_share_one_fit_and_plan(self, engine, monkeypatch):
        """Threads switching every microsecond still fit and prepare once."""
        import sys
        import threading

        from repro.nerf.renderer import InstantNGPRenderer

        fitted = []
        fit = InstantNGPRenderer.fit_to_scene

        def counting_fit(self, scene, *args, **kwargs):
            fitted.append(scene.name)
            return fit(self, scene, *args, **kwargs)

        monkeypatch.setattr(InstantNGPRenderer, "fit_to_scene", counting_fit)
        start = threading.Barrier(8)
        seen = [None] * 8

        def probe(index):
            start.wait()
            seen[index] = engine.probe("lego", 12, 6)

        threads = [threading.Thread(target=probe, args=(i,)) for i in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert fitted == ["lego"]
        assert all(pair[0] is seen[0][0] and pair[1] is seen[0][1] for pair in seen)

    def test_plan_keeps_only_occupied_rows(self, engine):
        renderer, plan = engine.probe("mic", 12, 6)
        assert plan.occupied.shape == (12 * 12 * 6,)
        assert 0 < plan.occupied.sum() < plan.occupied.size
        assert plan.encoded.shape == (int(plan.occupied.sum()), renderer.config.output_dim)
        assert plan.encoded.any(axis=1).all()


class TestReducers:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geomean([])

    def test_aggregate_and_index(self, engine):
        rows = engine.run(
            SweepSpec(
                devices=("flexnerfer",),
                models=("nerf", "instant-ngp"),
                precisions=(Precision.INT16, Precision.INT8),
                base_config=SMALL_CONFIG,
            )
        )
        indexed = index_rows(rows, "model", "precision")
        assert indexed[("nerf", Precision.INT8)].precision is Precision.INT8
        grouped = aggregate(rows, lambda r: r.latency_s, by=("precision",))
        assert set(grouped) == {(Precision.INT16,), (Precision.INT8,)}
        assert grouped[(Precision.INT8,)] < grouped[(Precision.INT16,)]

    def test_gain_geomean_matches_manual(self, engine):
        baseline = engine.run(
            SweepSpec(
                devices=("rtx-2080-ti",),
                models=("nerf", "instant-ngp"),
                base_config=SMALL_CONFIG,
            )
        )
        rows = engine.run(
            SweepSpec(
                devices=("flexnerfer",),
                models=("nerf", "instant-ngp"),
                base_config=SMALL_CONFIG,
            )
        )
        manual = geomean(
            b.latency_s / r.latency_s for b, r in zip(baseline, rows)
        )
        assert gain_geomean(baseline, rows) == pytest.approx(manual)


class TestFig19Parity:
    """The refactored Fig. 19 must reproduce its pre-refactor values exactly."""

    #: (device, precision, pruning) -> (speedup, energy gain), captured from
    #: the hand-rolled pre-SweepEngine implementation at the same settings.
    EXPECTED = {
        ("NeuRex", Precision.INT16, 0.0): (8.455220110052846, 214.32738286814188),
        ("NeuRex", Precision.INT16, 0.5): (8.455220110052846, 214.32738286814188),
        ("NeuRex", Precision.INT16, 0.9): (8.455220110052846, 214.32738286814188),
        ("FlexNeRFer", Precision.INT16, 0.0): (23.254996713648378, 487.63943154605624),
        ("FlexNeRFer", Precision.INT16, 0.5): (33.02056915956951, 837.651948482967),
        ("FlexNeRFer", Precision.INT16, 0.9): (49.72599304682657, 1967.3263239176413),
        ("FlexNeRFer", Precision.INT8, 0.0): (40.75427077081469, 1086.1728493592673),
        ("FlexNeRFer", Precision.INT8, 0.5): (47.82617649805277, 1566.1103599460905),
        ("FlexNeRFer", Precision.INT8, 0.9): (55.53584918148959, 2422.4234198159866),
        ("FlexNeRFer", Precision.INT4, 0.0): (52.120643998845125, 1832.9271745262204),
        ("FlexNeRFer", Precision.INT4, 0.5): (54.95176729605884, 2171.320387795484),
        ("FlexNeRFer", Precision.INT4, 0.9): (57.44837627517675, 2547.6104279787173),
    }

    def test_values_and_cache_reuse(self):
        engine = SweepEngine()
        points = fig19_speedup_energy.run(
            models=("instant-ngp",), pruning_ratios=(0.0, 0.5, 0.9), engine=engine
        )
        assert len(points) == len(self.EXPECTED)
        for point in points:
            speedup, gain = self.EXPECTED[
                (point.device, point.precision, point.pruning_ratio)
            ]
            assert point.speedup == pytest.approx(speedup, rel=1e-9)
            assert point.energy_efficiency_gain == pytest.approx(gain, rel=1e-9)

        # 1 GPU + 1 NeuRex + 9 FlexNeRFer simulations serve all 12 points.
        calls = engine.stats.render_calls
        assert calls == 11

        # Re-running the full experiment is pure cache: unchanged numbers,
        # zero new frame simulations.
        again = fig19_speedup_energy.run(
            models=("instant-ngp",), pruning_ratios=(0.0, 0.5, 0.9), engine=engine
        )
        assert engine.stats.render_calls == calls
        assert again == points

