"""Tests for the Table 3 array baselines and the Fig. 4 utilisation models."""

import pytest

from repro.baselines.arrays import (
    BitFusionArray,
    BitScalableSigmaArray,
    SigmaArray,
    TABLE3_BASELINES,
)
from repro.baselines.nvdla import NVDLAModel
from repro.baselines.tpu import TPUModel
from repro.nerf.workload import GEMMOp
from repro.sim.utilization import effective_mac_utilization
from repro.sparse.formats import Precision


class TestTable3Baselines:
    def test_published_power_used(self):
        assert SigmaArray().power_w(Precision.INT16) == 5.8
        assert BitFusionArray().power_w(Precision.INT4) == 5.8
        assert BitScalableSigmaArray().power_w(Precision.INT16) == 8.2

    def test_area_close_to_paper(self):
        assert SigmaArray().area().total_mm2 == pytest.approx(20.5, rel=0.2)
        assert BitFusionArray().area().total_mm2 == pytest.approx(31.9, rel=0.1)
        assert BitScalableSigmaArray().area().total_mm2 == pytest.approx(40.8, rel=0.1)

    def test_sigma_is_int16_only(self):
        assert SigmaArray().supported_precisions() == (Precision.INT16,)
        assert len(BitFusionArray().supported_precisions()) == 3

    def test_peak_efficiency_close_to_paper(self):
        assert SigmaArray().peak_efficiency(Precision.INT16) == pytest.approx(1.1, abs=0.15)
        assert BitFusionArray().peak_efficiency(Precision.INT4) == pytest.approx(18.1, rel=0.05)
        assert BitScalableSigmaArray().peak_efficiency(Precision.INT4) == pytest.approx(5.7, rel=0.05)

    def test_bs_sigma_int4_peak_limited_by_interconnect(self):
        bs_sigma = BitScalableSigmaArray()
        bitfusion = BitFusionArray()
        assert bs_sigma.peak_tops(Precision.INT4) == pytest.approx(
            0.5 * bitfusion.peak_tops(Precision.INT4)
        )

    def test_effective_efficiency_ordering(self):
        """On sparse irregular GEMMs: sparsity-aware flexible arrays win."""
        sigma_eff = SigmaArray().effective_efficiency(Precision.INT16)
        bitfusion_eff = BitFusionArray().effective_efficiency(Precision.INT16)
        assert bitfusion_eff < sigma_eff

    def test_effective_efficiency_uses_shared_utilization_model(self):
        op = GEMMOp("g", m=4096, n=65, k=37, weight_sparsity=0.5, activation_sparsity=0.3)
        for cls in TABLE3_BASELINES:
            array = cls()
            assert array.effective_efficiency(Precision.INT16, op) == pytest.approx(
                array.peak_efficiency(Precision.INT16)
                * effective_mac_utilization(op, array.array_config())
            )

    def test_spec_rows_complete(self):
        for cls in TABLE3_BASELINES:
            row = cls().spec_row()
            assert row.area_mm2 > 0
            assert set(row.power_w) == set(row.precisions)
            assert all(v > 0 for v in row.peak_efficiency.values())


def toy_nvdla():
    """The paper's 4x4 (16-MAC) NVDLA toy array of Fig. 4."""
    return NVDLAModel(atomic_input_channels=4, atomic_output_kernels=4)


def toy_tpu():
    """The paper's 4x4 (16-MAC) TPU toy array of Fig. 4."""
    return TPUModel(rows=4, cols=4)


class TestFig4Models:
    def test_early_cnn_layer(self):
        assert toy_nvdla().conv_utilization(3, 2) == pytest.approx(0.375)
        assert toy_tpu().conv_utilization(3, 2, spatial_positions=36) == pytest.approx(0.375)

    def test_late_cnn_layer(self):
        assert toy_nvdla().conv_utilization(64, 64) == pytest.approx(1.0)
        assert toy_tpu().conv_utilization(64, 64, spatial_positions=2) == pytest.approx(0.5)

    def test_irregular_dense_gemm(self):
        assert toy_nvdla().gemm_utilization(4, 5, 4) == pytest.approx(0.0625)
        assert toy_tpu().gemm_utilization(4, 5, 4) == pytest.approx(1.0)

    def test_irregular_sparse_gemm(self):
        assert toy_tpu().gemm_utilization(4, 5, 4, density=0.6875) == pytest.approx(0.6875)
        assert toy_nvdla().gemm_utilization(4, 5, 4, density=0.6875) == pytest.approx(0.0625)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            toy_nvdla().conv_utilization(0, 4)
        with pytest.raises(ValueError):
            toy_tpu().gemm_utilization(1, 1, 1, density=0.0)


#: Values no array dimension may take (zero, negative, fractional, bool,
#: non-finite): each is rejected when the device is built, not at render.
BAD_COUNTS = (0, -4, 2.5, True, float("nan"), float("inf"), -1.0)
#: The subset no clock or power figure may take (2.5 and True are positive).
BAD_POSITIVES = (0, -4, float("nan"), float("inf"), -1.0)

GEOMETRY = {
    NVDLAModel: ("atomic_input_channels", "atomic_output_kernels"),
    TPUModel: ("rows", "cols"),
}


def _bad_arguments():
    for cls, dimensions in GEOMETRY.items():
        for name in dimensions:
            for value in BAD_COUNTS:
                yield cls, name, value
        for name in ("frequency_hz", "typical_power_w"):
            for value in BAD_POSITIVES:
                yield cls, name, value


class TestConstructorValidation:
    @pytest.mark.parametrize(("cls", "name", "value"), list(_bad_arguments()))
    def test_bad_geometry_or_operating_point_raises_one_line(self, cls, name, value):
        with pytest.raises(ValueError, match=name) as info:
            cls(**{name: value})
        assert "\n" not in str(info.value)

    def test_defaults_are_the_full_configurations(self):
        nvdla, tpu = NVDLAModel(), TPUModel()
        assert (nvdla.num_macs, nvdla.frequency_hz, nvdla.typical_power_w) == (2048, 1e9, 2.5)
        assert (tpu.num_macs, tpu.frequency_hz, tpu.typical_power_w) == (4096, 700e6, 2.0)
