"""Tests for the FlexNeRFer top-level accelerator model."""

import math

import pytest

from repro.core import FlexNeRFer, FlexNeRFerConfig
from repro.nerf.models import FrameConfig, get_model
from repro.nerf.workload import OpCategory
from repro.sparse.formats import Precision


@pytest.fixture(scope="module")
def accelerator():
    return FlexNeRFer()


@pytest.fixture(scope="module")
def instant_ngp_workload():
    return get_model("instant-ngp").build_workload(FrameConfig())


class TestConfig:
    def test_defaults(self):
        config = FlexNeRFerConfig()
        assert config.num_mac_units == 4096
        assert config.default_precision is Precision.INT16

    def test_validation(self):
        bad_values = {
            "array_rows": (0, math.nan, math.inf, 2.5, True),
            "array_cols": (0, math.nan, -math.inf, 2.5, True),
            "input_buffer_bytes": (0, math.nan, math.inf, 2.5, True),
            "pee_lanes": (0, math.nan, 2.5, True),
            "frequency_hz": (0, math.nan, math.inf, -math.inf),
            "format_conversion_overhead": (-0.1, math.nan, math.inf, -math.inf),
        }
        for field, values in bad_values.items():
            for value in values:
                with pytest.raises(ValueError):
                    FlexNeRFerConfig(**{field: value})


class TestHardwareCost:
    def test_area_matches_paper(self, accelerator):
        """Fig. 16(a): FlexNeRFer occupies ~35.4 mm^2."""
        assert accelerator.area().total_mm2 == pytest.approx(35.4, rel=0.03)

    @pytest.mark.parametrize(
        "precision, expected",
        [(Precision.INT16, 7.3), (Precision.INT8, 8.4), (Precision.INT4, 9.2)],
    )
    def test_power_matches_paper(self, accelerator, precision, expected):
        """Fig. 16(b): 7.3 / 8.4 / 9.2 W at INT16 / INT8 / INT4."""
        assert accelerator.power(precision).total_w == pytest.approx(expected, rel=0.05)

    def test_meets_on_device_constraints(self, accelerator):
        assert accelerator.area().total_mm2 < 100.0
        assert accelerator.power(Precision.INT4).total_w < 10.0

    def test_area_breakdown_contains_main_blocks(self, accelerator):
        blocks = set(accelerator.area().breakdown)
        assert {"encoding_unit", "buffers", "controller", "dma"} <= blocks
        assert any(block.startswith("gemm_unit/") for block in blocks)

    def test_format_codec_overhead_is_small(self, accelerator):
        """The format encoder/decoder costs a few percent (paper: 3.2 % / 3.4 %)."""
        area = accelerator.area()
        assert 0.01 < area.fraction("gemm_unit/format_codec") < 0.08


class TestFrameExecution:
    def test_report_fields(self, accelerator, instant_ngp_workload):
        report = accelerator.render_frame(instant_ngp_workload)
        assert report.latency_s > 0
        assert report.energy_j > 0
        assert report.fps == pytest.approx(1.0 / report.latency_s)
        assert report.precision is Precision.INT16
        assert len(report.trace.records) == len(instant_ngp_workload.ops)

    def test_lower_precision_is_faster(self, accelerator, instant_ngp_workload):
        int16 = accelerator.render_frame(instant_ngp_workload, Precision.INT16)
        int8 = accelerator.render_frame(instant_ngp_workload, Precision.INT8)
        int4 = accelerator.render_frame(instant_ngp_workload, Precision.INT4)
        assert int4.latency_s < int8.latency_s < int16.latency_s

    def test_pruning_speeds_up_rendering(self, accelerator, instant_ngp_workload):
        baseline = accelerator.render_frame(instant_ngp_workload)
        pruned = accelerator.render_frame(instant_ngp_workload, pruning_ratio=0.9)
        assert pruned.latency_s < baseline.latency_s

    def test_format_conversion_share_matches_fig18(self, accelerator, instant_ngp_workload):
        """Format conversion is a single-digit percentage of frame time at INT16."""
        report = accelerator.render_frame(instant_ngp_workload, Precision.INT16)
        components = report.trace.time_by_component()
        share = components["format_conversion"] / report.latency_s
        assert 0.01 < share < 0.12

    def test_all_categories_present_in_trace(self, accelerator, instant_ngp_workload):
        report = accelerator.render_frame(instant_ngp_workload)
        breakdown = report.trace.runtime_breakdown()
        assert breakdown[OpCategory.GEMM] > 0
        assert breakdown[OpCategory.ENCODING] > 0

    def test_big_mlp_model_is_gemm_dominated(self, accelerator):
        workload = get_model("nerf").build_workload(FrameConfig())
        report = accelerator.render_frame(workload)
        assert report.trace.runtime_breakdown()[OpCategory.GEMM] > 0.6
