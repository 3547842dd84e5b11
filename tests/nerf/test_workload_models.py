"""Tests for workload descriptors and the seven per-model builders."""

import numpy as np
import pytest

from repro.nerf.models import MODEL_REGISTRY, FrameConfig, get_model
from repro.nerf.workload import EncodingOp, GEMMOp, MiscOp, Workload
from repro.sparse.formats import Precision


class TestGEMMOp:
    def test_macs_and_flops(self):
        op = GEMMOp("x", m=10, n=20, k=30)
        assert op.macs == 6000
        assert op.flops == 12000

    def test_effective_macs_with_sparsity(self):
        op = GEMMOp("x", m=10, n=10, k=10, weight_sparsity=0.5, activation_sparsity=0.5)
        assert op.effective_macs == pytest.approx(250)

    def test_pruning_compounds_with_existing_sparsity(self):
        op = GEMMOp("x", m=4, n=4, k=4, weight_sparsity=0.5)
        pruned = op.pruned(0.5)
        assert pruned.weight_sparsity == pytest.approx(0.75)

    def test_precision_change_preserves_other_fields(self):
        op = GEMMOp("x", m=4, n=4, k=4, activation_sparsity=0.3)
        changed = op.with_precision(Precision.INT4)
        assert changed.precision is Precision.INT4
        assert changed.activation_sparsity == 0.3

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GEMMOp("x", m=0, n=1, k=1)
        with pytest.raises(ValueError):
            GEMMOp("x", m=1, n=1, k=1, weight_sparsity=1.0)


class TestFrameConfig:
    @pytest.mark.parametrize("field", ["image_width", "image_height", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, float("nan"), 2.5, True])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1 and an integer"):
            FrameConfig(**{field: value})


class TestEncodingAndMiscOps:
    def test_positional_flops_scale_with_output(self):
        small = EncodingOp("p", "positional", num_points=100, input_dim=3, output_dim=30)
        large = EncodingOp("p", "positional", num_points=100, input_dim=3, output_dim=60)
        assert large.flops == 2 * small.flops

    def test_hash_dram_bytes_capped_by_lookups(self):
        op = EncodingOp(
            "h", "hash", num_points=10, input_dim=3, output_dim=32,
            table_lookups_per_point=8, table_bytes=1e9, table_passes=2,
        )
        assert op.dram_bytes == 10 * 8 * 4.0

    def test_positional_has_no_dram_traffic(self):
        op = EncodingOp("p", "positional", num_points=10, input_dim=3, output_dim=30)
        assert op.dram_bytes == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EncodingOp("x", "fourier", num_points=1, input_dim=1, output_dim=1)

    def test_misc_validation(self):
        with pytest.raises(ValueError):
            MiscOp("m", flops=-1, memory_bytes=0)


NAN, INF = float("nan"), float("inf")

GEMM = dict(name="g", m=4, n=4, k=4)
ENCODING = dict(name="e", kind="hash", num_points=4, input_dim=3, output_dim=2)
MISC = dict(name="x", flops=1.0, memory_bytes=0.0)


BAD_OP_FIELDS = [
    (GEMMOp, "m", NAN, "g.m must be >= 1 and an integer"),
    (GEMMOp, "m", INF, "g.m must be >= 1 and an integer"),
    (GEMMOp, "n", 2.5, "g.n must be >= 1 and an integer"),
    (GEMMOp, "k", True, "g.k must be >= 1 and an integer"),
    (GEMMOp, "count", NAN, "g.count must be >= 1 and an integer"),
    (EncodingOp, "num_points", NAN, "e.num_points must be >= 1"),
    (EncodingOp, "num_points", 2.5, "e.num_points must be >= 1"),
    (EncodingOp, "count", INF, "e.count must be >= 1"),
    (EncodingOp, "table_lookups_per_point", 2.5, "e.table_lookups_per_point must be >= 0"),
    (MiscOp, "flops", NAN, "x.flops must be finite and >= 0"),
    (MiscOp, "flops", INF, "x.flops must be finite and >= 0"),
    (MiscOp, "memory_bytes", NAN, "x.memory_bytes must be finite and >= 0"),
    (MiscOp, "count", 2.5, "x.count must be >= 1 and an integer"),
    (MiscOp, "count", True, "x.count must be >= 1 and an integer"),
    (GEMMOp, "count", 2.5, "g.count must be >= 1 and an integer"),
    (EncodingOp, "input_dim", 2.5, "e.input_dim must be >= 1"),
    (EncodingOp, "output_dim", NAN, "e.output_dim must be >= 1"),
    (EncodingOp, "count", True, "e.count must be >= 1"),
    (EncodingOp, "table_lookups_per_point", -1, "e.table_lookups_per_point must be >= 0"),
    (EncodingOp, "table_lookups_per_point", NAN, "e.table_lookups_per_point must be >= 0"),
    (MiscOp, "flops", -INF, "x.flops must be finite and >= 0"),
    (MiscOp, "memory_bytes", INF, "x.memory_bytes must be finite and >= 0"),
    (EncodingOp, "table_bytes", NAN, "e.table_bytes must be finite and >= 0"),
    (EncodingOp, "table_bytes", -1.0, "e.table_bytes must be finite and >= 0"),
    (EncodingOp, "table_passes", NAN, "e.table_passes must be finite and >= 0"),
    (EncodingOp, "table_passes", INF, "e.table_passes must be finite and >= 0"),
]


@pytest.mark.parametrize(
    "op,field,value,message",
    [
        pytest.param(*case, id=f"{case[0].__name__}-{case[1]}={case[2]}")
        for case in BAD_OP_FIELDS
    ],
)
def test_op_fields_reject_non_finite_fractional_and_bool(op, field, value, message):
    base = {GEMMOp: GEMM, EncodingOp: ENCODING, MiscOp: MISC}[op]
    with pytest.raises(ValueError, match=message):
        op(**{**base, field: value})


@pytest.mark.parametrize(
    "op,fields",
    [
        (GEMMOp, dict(m=np.int64(4), n=np.int32(2), k=np.int64(8), count=np.int64(3))),
        (EncodingOp, dict(num_points=np.int64(4), table_lookups_per_point=0)),
        (MiscOp, dict(flops=0, memory_bytes=0, count=np.int64(2))),
    ],
    ids=["GEMMOp", "EncodingOp", "MiscOp"],
)
def test_op_fields_accept_numpy_integers_and_zero_costs(op, fields):
    # The guards reject fractions and bools, not integer types: numpy
    # integers pass as their int value, and a free op (zero flops or bytes,
    # zero table lookups) stays legal.
    base = {GEMMOp: GEMM, EncodingOp: ENCODING, MiscOp: MISC}[op]
    built = op(**{**base, **fields})
    for name, value in fields.items():
        assert getattr(built, name) == value


class TestWorkload:
    def _workload(self):
        return Workload(
            model_name="test",
            ops=[
                GEMMOp("g", m=100, n=64, k=32),
                EncodingOp("e", "positional", num_points=100, input_dim=3, output_dim=60),
                MiscOp("m", flops=1000, memory_bytes=100),
            ],
        )

    def test_category_totals(self):
        workload = self._workload()
        encoding_flops = workload.encoding_ops()[0].flops
        assert workload.total_flops == 2 * 100 * 64 * 32 + encoding_flops + 1000

    def test_pruning_only_affects_gemms(self):
        pruned = self._workload().pruned(0.5)
        assert pruned.gemm_ops()[0].weight_sparsity == 0.5
        assert len(pruned.encoding_ops()) == 1

    def test_precision_change(self):
        converted = self._workload().with_precision(Precision.INT4)
        assert all(op.precision is Precision.INT4 for op in converted.gemm_ops())


    def test_num_batches(self):
        workload = self._workload()
        assert workload.num_rays == 800 * 800
        assert workload.batch_size == 4096


class TestModelDescriptors:
    def test_registry_has_seven_models(self):
        assert len(MODEL_REGISTRY) == 7

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_every_model_builds_a_workload(self, name):
        workload = get_model(name).build_workload(FrameConfig())
        assert workload.total_flops > 0
        assert len(workload.gemm_ops()) >= 1
        assert len(workload.encoding_ops()) >= 1
        assert len(workload.misc_ops()) >= 1

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("gaussian-splatting")

    def test_vanilla_nerf_is_heaviest_positional_model(self):
        config = FrameConfig()
        flops = {m.name: m.build_workload(config).total_flops for m in map(get_model, MODEL_REGISTRY)}
        assert flops["nerf"] > flops["instant-ngp"]
        assert flops["nerf"] > flops["kilonerf"]

    def test_instant_ngp_skips_empty_space(self):
        config = FrameConfig()
        model = get_model("instant-ngp")
        assert model.uses_empty_space_skipping
        assert model.input_sparsity(config) == pytest.approx(
            config.scene.ray_marching_sparsity
        )

    def test_skipping_models_sample_fewer_points_on_sparser_scenes(self):
        model = get_model("kilonerf")
        lego = model.samples_per_ray(FrameConfig(scene_name="lego"))
        mic = model.samples_per_ray(FrameConfig(scene_name="mic"))
        assert mic < lego

    def test_batch_size_propagates(self):
        workload = get_model("nerf").build_workload(FrameConfig(batch_size=2048))
        assert workload.batch_size == 2048

    def test_hash_models_have_table_traffic(self):
        workload = get_model("instant-ngp").build_workload(FrameConfig())
        hash_ops = [op for op in workload.encoding_ops() if op.kind == "hash"]
        assert hash_ops and all(op.table_bytes > 0 for op in hash_ops)
