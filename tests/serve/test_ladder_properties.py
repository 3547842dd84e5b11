"""Property tests for degradation-ladder pricing edge cases.

Three edges the broad serving fuzz suite never isolates:

* a **single-rung ladder** is a legal, fully functional menu (depth 1,
  shedder saturates at level 1, pricing produces exactly one row);
* a priced rung with **speedup < 1** is a configuration error --
  ``LadderPricing`` rejects it at construction, never silently serving
  backlog slower at lower quality;
* **quality monotonicity** -- a ladder whose rungs carry non-increasing
  qualities yields a non-increasing ``quality_of`` over levels, and a
  queue-depth shedder's level is non-decreasing in queue depth.

Fixed-seed randomized (`SEED`), budget tunable via ``REPRO_FUZZ_ITERATIONS``
like the other property suites.
"""

import os
import random

import pytest

from repro.serve.control import (
    DegradationLadder,
    DegradationStep,
    LadderPricing,
    PricedStep,
    QueueDepthShedder,
    price_ladder,
)
from repro.serve.request import Scenario
from repro.sim.sweep import SweepEngine

#: Fixed fuzz seed: the whole suite is one reproducible random stream.
SEED = 20260808

#: Combined config budget; override with REPRO_FUZZ_ITERATIONS=<n>.
ITERATIONS = int(os.environ.get("REPRO_FUZZ_ITERATIONS", "200"))


def priced_row(step, speedup, quality=0.8):
    """A fabricated measured row with the given speedup."""
    return PricedStep(
        step=step,
        latency_s=1.0 / speedup,
        energy_j=1.0 / speedup,
        speedup=speedup,
        energy_gain=speedup,
        psnr_db=30.0,
        quality=quality,
    )


SCENARIO = Scenario("instant-ngp", scene="lego", width=64, height=64)
STEP = DegradationStep("half-res", resolution_scale=0.5)


class TestSingleRungLadder:
    def test_single_rung_ladder_mechanics(self):
        ladder = DegradationLadder(steps=(STEP,), qualities=(0.75,))
        assert ladder.depth == 1
        assert ladder.quality_of(0) == 1.0
        assert ladder.quality_of(1) == 0.75
        degraded = ladder.apply(SCENARIO, 1)
        assert (degraded.width, degraded.height) == (32, 32)
        assert ladder.apply(SCENARIO, 0) is SCENARIO

    def test_single_rung_shedder_saturates_at_one(self):
        shedder = QueueDepthShedder(
            DegradationLadder(steps=(STEP,), qualities=(0.75,)), depth_per_step=2
        )
        levels = [shedder.level(depth, 1) for depth in range(12)]
        assert levels[0] == 0
        assert max(levels) == 1, "a one-rung ladder never sheds past level 1"
        assert levels == sorted(levels)

    def test_price_ladder_single_rung(self):
        # One measured row end to end, tiny probe so the test stays cheap.
        pricing = price_ladder(
            SCENARIO,
            "flexnerfer",
            steps=(STEP,),
            engine=SweepEngine(),
            probe_size=16,
            probe_samples=8,
        )
        assert len(pricing.rows) == 1
        (row,) = pricing.rows
        assert row.speedup >= 1.0
        assert 0.0 < row.quality <= 1.0
        ladder = pricing.ladder()
        assert ladder.depth == 1
        assert ladder.quality_of(1) == row.quality

    def test_price_ladder_prepares_each_probe_once(self, monkeypatch):
        from repro.experiments.registry import EXPERIMENTS
        from repro.nerf.renderer import InstantNGPRenderer
        from repro.sim import sweep

        fitted, prepared = [], []
        fit = InstantNGPRenderer.fit_to_scene
        prepare = InstantNGPRenderer.prepare_render

        def counting_fit(self, scene, *args, **kwargs):
            fitted.append(scene.name)
            return fit(self, scene, *args, **kwargs)

        def counting_prepare(self, camera, num_samples, *args, **kwargs):
            prepared.append((self.scene.name, camera.width, num_samples))
            return prepare(self, camera, num_samples, *args, **kwargs)

        monkeypatch.setattr(InstantNGPRenderer, "fit_to_scene", counting_fit)
        monkeypatch.setattr(InstantNGPRenderer, "prepare_render", counting_prepare)
        engine = SweepEngine()
        price_ladder(SCENARIO, "flexnerfer", engine=engine, probe_size=16, probe_samples=8)
        # The full-quality probe, then int8 (same size), int8+half-samples,
        # and the two half-res steps sharing one (8, 8) probe.
        scene = SCENARIO.scene
        assert prepared == [(scene, 16, 8), (scene, 16, 4), (scene, 8, 8)]
        # A second ladder on the same engine fits and prepares nothing.
        price_ladder(SCENARIO, "neurex", engine=engine, probe_size=16, probe_samples=8)
        assert fitted == [scene]
        assert len(prepared) == 3

        # Every probe user of a run shares one fresh engine: each scene is
        # fitted once and each (scene, size, samples) view prepared once.
        fitted.clear()
        prepared.clear()
        monkeypatch.setattr(sweep, "_DEFAULT_ENGINE", SweepEngine())
        for exp_id in ("fig13", "fig20a", "serve-overload-sla", "serve-quality-shed"):
            EXPERIMENTS[exp_id].run()
        assert sorted(fitted) == ["lego", "mic"]
        assert len(prepared) == len(set(prepared)) == 5


class TestSpeedupValidation:
    def test_slower_than_full_quality_rejected(self):
        with pytest.raises(ValueError, match="prices slower than full quality"):
            LadderPricing(
                scenario=SCENARIO,
                device="flexnerfer",
                base_latency_s=1.0,
                base_energy_j=1.0,
                rows=(priced_row(STEP, speedup=0.9),),
            )

    def test_fuzzed_speedup_lists(self):
        """Any rung below 1 rejects the pricing; all >= 1 accepts it."""
        rng = random.Random(SEED)
        for _ in range(max(20, ITERATIONS // 4)):
            count = rng.randint(1, 4)
            speedups = [rng.uniform(0.25, 4.0) for _ in range(count)]
            rows = tuple(
                priced_row(
                    DegradationStep(f"rung-{i}", resolution_scale=0.5), s
                )
                for i, s in enumerate(speedups)
            )
            build = lambda: LadderPricing(
                scenario=SCENARIO,
                device="flexnerfer",
                base_latency_s=1.0,
                base_energy_j=1.0,
                rows=rows,
            )
            if any(s < 1.0 for s in speedups):
                with pytest.raises(ValueError, match="speedup"):
                    build()
            else:
                assert build().ladder().depth == count


class TestQualityMonotonicity:
    def random_ladder(self, rng):
        """A ladder with strictly descending rung qualities."""
        depth = rng.randint(1, 5)
        qualities = sorted(
            (rng.uniform(0.05, 0.99) for _ in range(depth)), reverse=True
        )
        steps = tuple(
            DegradationStep(f"rung-{i}", resolution_scale=rng.uniform(0.25, 1.0))
            for i in range(depth)
        )
        return DegradationLadder(steps=steps, qualities=tuple(qualities))

    def test_quality_of_is_non_increasing_over_levels(self):
        rng = random.Random(SEED + 1)
        for _ in range(max(20, ITERATIONS // 4)):
            ladder = self.random_ladder(rng)
            qualities = [ladder.quality_of(level) for level in range(ladder.depth + 1)]
            assert qualities[0] == 1.0
            assert qualities == sorted(qualities, reverse=True), qualities

    def test_shed_level_is_non_decreasing_in_queue_depth(self):
        rng = random.Random(SEED + 2)
        for _ in range(max(20, ITERATIONS // 4)):
            ladder = self.random_ladder(rng)
            shedder = QueueDepthShedder(ladder, depth_per_step=rng.randint(1, 6))
            workers = rng.randint(1, 4)
            levels = [shedder.level(depth, workers) for depth in range(64)]
            assert levels == sorted(levels)
            assert max(levels) <= ladder.depth
