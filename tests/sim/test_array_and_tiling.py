"""Tests for the array configuration and GEMM tiling."""

import math

import numpy as np
import pytest

from repro.nerf.workload import GEMMOp
from repro.sim.array_config import ArrayConfig
from repro.sim.engine import GEMMCycleModel
from repro.sim.tiling import tile_counts
from repro.sparse.formats import Precision


def _flexible_config(**overrides):
    defaults = dict(
        name="test",
        rows=64,
        cols=64,
        bit_scalable=True,
        supports_sparsity=True,
    )
    defaults.update(overrides)
    return ArrayConfig(**defaults)


class TestArrayConfig:
    def test_bit_scalable_precisions(self):
        config = _flexible_config()
        assert set(config.supported_precisions()) == {
            Precision.INT4, Precision.INT8, Precision.INT16,
        }

    def test_fixed_precision_array_falls_back(self):
        config = ArrayConfig(name="dense", bit_scalable=False)
        assert config.effective_precision(Precision.INT4) is Precision.INT16

    def test_lane_scaling(self):
        flexible = _flexible_config()
        fixed = ArrayConfig(name="dense", bit_scalable=False)
        base = Precision.INT16
        for precision, lanes in ((Precision.INT16, 1), (Precision.INT8, 4), (Precision.INT4, 16)):
            assert flexible.macs_per_cycle(precision) == lanes * flexible.macs_per_cycle(base)
            assert fixed.macs_per_cycle(precision) == fixed.macs_per_cycle(base)

    def test_peak_ops(self):
        # A rigid array with no pipeline overhead runs an aligned GEMM at
        # exactly its peak of 2 ops per MAC per cycle.
        config = ArrayConfig(name="peak", frequency_hz=800e6, pipeline_overhead=0.0)
        op = GEMMOp("g", m=4096, n=64, k=64)
        execution = GEMMCycleModel(config).execute(op)
        assert 2 * op.macs / execution.compute_time_s == pytest.approx(2 * 4096 * 800e6)

    def test_numpy_integer_geometry_accepted(self):
        config = ArrayConfig(name="np", rows=np.int64(32), cols=np.int32(16))
        assert config.macs_per_cycle(Precision.INT16) == 32 * 16

    def test_effective_grid_and_macs(self):
        config = _flexible_config()
        assert config.effective_grid(Precision.INT4) == (256, 256)
        assert config.macs_per_cycle(Precision.INT16) == 64 * 64
        assert config.macs_per_cycle(Precision.INT4) == 256 * 256

    def test_fetch_bytes_double_per_precision_step(self):
        config = _flexible_config()
        assert config.data_fetch_bytes(Precision.INT16) == 8192
        assert config.data_fetch_bytes(Precision.INT8) == 16384
        assert config.data_fetch_bytes(Precision.INT4) == 32768

    def test_invalid_config(self):
        bad_values = {
            "rows": (0, math.nan, math.inf, 2.5, True),
            "cols": (0, math.nan, -math.inf, 2.5, True),
            "frequency_hz": (0, math.nan, math.inf, -math.inf),
            "pipeline_overhead": (1.5, math.nan, math.inf, -math.inf),
            "format_conversion_overhead": (-0.1, math.nan, math.inf, -math.inf),
        }
        for field, values in bad_values.items():
            for value in values:
                with pytest.raises(ValueError):
                    ArrayConfig(name="bad", **{field: value})


class TestTiling:
    def test_exact_fit(self):
        op = GEMMOp("g", m=64, n=64, k=64)
        grid = tile_counts(op, _flexible_config())
        assert (grid.tiles_m, grid.tiles_n, grid.tiles_k) == (1, 1, 1)

    def test_irregular_shape_wastes_boundary(self):
        op = GEMMOp("g", m=65, n=65, k=65)
        grid = tile_counts(op, _flexible_config())
        assert (grid.tiles_m, grid.tiles_n, grid.tiles_k) == (2, 2, 2)

    def test_lower_precision_uses_larger_tiles(self):
        op = GEMMOp("g", m=256, n=256, k=256, precision=Precision.INT4)
        grid = tile_counts(op, _flexible_config())
        assert grid.tile_m == 256
        assert (grid.tiles_m, grid.tiles_n, grid.tiles_k) == (1, 1, 1)

    def test_fixed_precision_array_keeps_base_tiles(self):
        op = GEMMOp("g", m=256, n=256, k=256, precision=Precision.INT4)
        grid = tile_counts(op, ArrayConfig(name="dense", bit_scalable=False))
        assert (grid.tile_m, grid.tile_n, grid.tile_k) == (64, 64, 64)
        assert (grid.tiles_m, grid.tiles_n, grid.tiles_k) == (4, 4, 4)

    def test_output_tiles(self):
        op = GEMMOp("g", m=200, n=100, k=64)
        grid = tile_counts(op, _flexible_config())
        assert (grid.tiles_m, grid.tiles_n) == (4, 2)

    def test_results_are_memoised(self):
        op = GEMMOp("g", m=200, n=100, k=64)
        assert tile_counts(op, _flexible_config()) is tile_counts(op, _flexible_config())
