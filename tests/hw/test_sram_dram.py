"""Tests for the SRAM and DRAM models."""

import pytest

from repro.hw.dram import GDDR6_2080TI, LPDDR3, DRAMSpec
from repro.hw.sram import SRAMMacro

NAN, INF = float("nan"), float("inf")


class TestSRAM:
    def test_area_grows_with_capacity(self):
        small = SRAMMacro("s", capacity_bytes=64 << 10)
        large = SRAMMacro("l", capacity_bytes=2 << 20)
        assert large.area_mm2 > small.area_mm2

    def test_energy_per_bit_grows_sublinearly(self):
        small = SRAMMacro("s", capacity_bytes=32 << 10)
        large = SRAMMacro("l", capacity_bytes=32 << 20)
        ratio = large.energy_per_bit_pj / small.energy_per_bit_pj
        assert 1.0 < ratio < 1024  # sqrt scaling, not linear

    def test_banking_reduces_access_energy(self):
        flat = SRAMMacro("f", capacity_bytes=2 << 20, banks=1)
        banked = SRAMMacro("b", capacity_bytes=2 << 20, banks=8)
        assert banked.energy_per_bit_pj < flat.energy_per_bit_pj

    def test_access_energy_proportional_to_bits(self):
        macro = SRAMMacro("m", capacity_bytes=512 << 10)
        assert macro.access_energy_j(2000) == pytest.approx(2 * macro.access_energy_j(1000))

    def test_power_includes_leakage(self):
        macro = SRAMMacro("m", capacity_bytes=1 << 20)
        assert macro.power_w(0.0, 800e6) == pytest.approx(macro.leakage_w)
        assert macro.power_w(0.5, 800e6) > macro.leakage_w

    def test_invalid_utilisation(self):
        with pytest.raises(ValueError):
            SRAMMacro("m", capacity_bytes=1024).dynamic_power_w(1.5, 800e6)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SRAMMacro("m", capacity_bytes=0)

    @pytest.mark.parametrize("field", ["capacity_bytes", "width_bits", "banks"])
    @pytest.mark.parametrize("value", [NAN, INF, -INF, 2.5, True])
    def test_geometry_must_be_integer_counts(self, field, value):
        args = {"capacity_bytes": 1024, field: value}
        with pytest.raises(ValueError, match=f"SRAM {field} must be >= 1 and an integer"):
            SRAMMacro("m", **args)


class TestDRAM:
    def test_transfer_time(self):
        assert LPDDR3.transfer_time_s(12.8e9) == pytest.approx(1.0)

    def test_transfer_energy(self):
        energy = LPDDR3.transfer_energy_j(1.0)  # one byte
        assert energy == pytest.approx(8 * 40.0e-12)

    def test_gddr6_is_faster_but_cheaper_per_bit(self):
        assert GDDR6_2080TI.bandwidth_gbps > LPDDR3.bandwidth_gbps
        assert GDDR6_2080TI.energy_per_bit_pj < LPDDR3.energy_per_bit_pj

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            LPDDR3.transfer_time_s(-1)
        with pytest.raises(ValueError):
            LPDDR3.transfer_energy_j(-1)

    @pytest.mark.parametrize("num_bytes", [float("nan"), float("inf")])
    def test_non_finite_transfer_rejected(self, num_bytes):
        with pytest.raises(ValueError, match="byte count must be finite"):
            LPDDR3.transfer_time_s(num_bytes)
        with pytest.raises(ValueError, match="byte count must be finite"):
            LPDDR3.transfer_energy_j(num_bytes)

    @pytest.mark.parametrize("field", ["bandwidth_gbps", "energy_per_bit_pj"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_spec_rejects_bad_bandwidth_and_energy(self, field, value):
        args = {"name": "x", "bandwidth_gbps": 12.8, "energy_per_bit_pj": 40.0}
        with pytest.raises(ValueError, match=f"x {field} must be positive and finite"):
            DRAMSpec(**{**args, field: value})
