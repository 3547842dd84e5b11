"""Tests for the technology node, component library and cost reports."""

import pytest

from repro.hw.components import DEFAULT_LIBRARY, ComponentSpec
from repro.hw.cost import AreaReport, PowerReport
from repro.hw.tech import TECH_28NM


class TestTechnologyNode:
    def test_cycle_time(self):
        assert 1.0 / TECH_28NM.frequency_hz == pytest.approx(1.25e-9)


class TestComponentLibrary:
    def test_known_components_present(self):
        for name in ("mult4x4", "shifter4", "switch3x3", "pee_lane", "riscv_core"):
            assert name in DEFAULT_LIBRARY

    def test_missing_component_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_LIBRARY.get("warp-drive")

    def test_compose_adds_linearly(self):
        spec = DEFAULT_LIBRARY.compose("block", {"mult4x4": 2, "adder8": 1})
        expected_area = 2 * DEFAULT_LIBRARY.area_um2("mult4x4") + DEFAULT_LIBRARY.area_um2("adder8")
        assert spec.area_um2 == pytest.approx(expected_area)

    def test_times_scales_both_dimensions(self):
        spec = ComponentSpec("x", area_um2=10.0, power_mw=1.0).times(3)
        assert spec.area_um2 == 30.0
        assert spec.power_mw == 3.0

    def test_designware_pee_ratios_match_paper(self):
        """The approximated PEE is ~8.2x smaller and ~12.8x lower power (Section 5.2.1)."""
        approx = DEFAULT_LIBRARY.get("pee_lane")
        exact = DEFAULT_LIBRARY.get("pee_lane_designware")
        assert exact.area_um2 / approx.area_um2 == pytest.approx(8.2, rel=0.05)
        assert exact.power_mw / approx.power_mw == pytest.approx(12.8, rel=0.05)


class TestCostReports:
    def test_area_report_accumulates(self):
        report = AreaReport().add("a", 1.0).add("b", 2.0).add("a", 0.5)
        assert report.total_mm2 == pytest.approx(3.5)
        assert report.fraction("a") == pytest.approx(1.5 / 3.5)

    def test_merged_reports(self):
        merged = AreaReport({"a": 1.0}).merged(AreaReport({"a": 1.0, "b": 2.0}))
        assert merged.breakdown == {"a": 2.0, "b": 2.0}

    def test_scaled_power_report(self):
        report = PowerReport({"core": 2.0}).scaled(0.5)
        assert report.total_w == pytest.approx(1.0)

    def test_empty_report_fraction_is_zero(self):
        assert AreaReport().fraction("anything") == 0.0
