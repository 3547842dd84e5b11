"""Tests for the unified Device protocol and DEVICE_REGISTRY."""

import pytest

from repro.core.device import FrameReport
from repro.core.device import (
    DEVICE_REGISTRY,
    PRECISION_MODES,
    Device,
    UnsupportedKnobError,
    get_device,
    register_device,
)
from repro.nerf.models import FrameConfig, get_model
from repro.sim.sweep import SweepEngine
from repro.sparse.formats import Precision


@pytest.fixture(scope="module")
def small_workload():
    config = FrameConfig(image_width=64, image_height=64, batch_size=1024)
    return get_model("instant-ngp").build_workload(config)


EXPECTED_DEVICES = {
    "flexnerfer",
    "neurex",
    "rtx-2080-ti",
    "rtx-4090",
    "jetson-nano",
    "xavier-nx",
    "nvdla",
    "tpu",
}


class TestRegistryCompleteness:
    def test_covers_every_device_family(self):
        assert EXPECTED_DEVICES <= set(DEVICE_REGISTRY)

    @pytest.mark.parametrize("name", sorted(EXPECTED_DEVICES))
    def test_constructible_and_conforming(self, name):
        device = get_device(name)
        assert isinstance(device, Device)
        assert isinstance(device.name, str) and device.name
        for flag in ("supports_precision", "supports_pruning", "supports_batching"):
            assert isinstance(getattr(device, flag), bool)

    @pytest.mark.parametrize("name", sorted(EXPECTED_DEVICES))
    def test_render_frame_returns_report(self, name, small_workload):
        report = get_device(name).render_frame(small_workload)
        assert isinstance(report, FrameReport)
        assert report.latency_s > 0
        assert report.energy_j > 0
        assert report.model_name == "instant-ngp"

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("gameboy")

    def test_register_device_roundtrip(self):
        class Custom(Device):
            name = "custom"

            def render_frame(self, workload, *, precision=None, pruning_ratio=0.0):
                raise NotImplementedError

        register_device("custom-test-device", Custom)
        try:
            assert isinstance(get_device("custom-test-device"), Custom)
            with pytest.raises(ValueError):
                register_device("custom-test-device", Custom)
        finally:
            del DEVICE_REGISTRY["custom-test-device"]


class TestCapabilityFlags:
    def test_flexnerfer_supports_everything(self):
        flex = get_device("flexnerfer")
        assert flex.supports_precision and flex.supports_pruning
        assert flex.effective_precision(Precision.INT4) is Precision.INT4
        assert flex.effective_precision(None) is Precision.INT16  # config default
        assert flex.effective_pruning(0.7) == 0.7

    def test_neurex_noops_unsupported_knobs(self, small_workload):
        neurex = get_device("neurex")
        assert not neurex.supports_precision and not neurex.supports_pruning
        assert neurex.effective_precision(Precision.INT4) is Precision.INT16
        assert neurex.effective_pruning(0.9) == 0.0
        plain = neurex.render_frame(small_workload)
        knobbed = neurex.render_frame(
            small_workload, precision=Precision.INT4, pruning_ratio=0.9
        )
        assert knobbed.latency_s == plain.latency_s
        assert knobbed.energy_j == plain.energy_j

    def test_gpu_raises_on_unsupported_knobs(self, small_workload):
        gpu = get_device("rtx-2080-ti")
        with pytest.raises(UnsupportedKnobError):
            gpu.render_frame(small_workload, precision=Precision.INT8)
        with pytest.raises(UnsupportedKnobError):
            gpu.render_frame(small_workload, pruning_ratio=0.5)

    def test_utilization_devices_raise_on_pruning(self, small_workload):
        for name in ("nvdla", "tpu"):
            with pytest.raises(UnsupportedKnobError):
                get_device(name).render_frame(small_workload, pruning_ratio=0.5)


BAD_PRUNING_RATIOS = (float("nan"), -0.5, 1.0, float("inf"))
RANGE_ERROR = r"pruning ratio must be in \[0, 1\)"


class TestPruningRatioValidation:
    """Out-of-range ratios fail on every device, before any knob collapse."""

    @pytest.mark.parametrize("ratio", BAD_PRUNING_RATIOS)
    @pytest.mark.parametrize("name", sorted(EXPECTED_DEVICES))
    def test_render_frame_rejects(self, name, ratio, small_workload):
        with pytest.raises(ValueError, match=RANGE_ERROR) as info:
            get_device(name).render_frame(small_workload, pruning_ratio=ratio)
        assert not isinstance(info.value, UnsupportedKnobError)

    @pytest.mark.parametrize("ratio", BAD_PRUNING_RATIOS)
    @pytest.mark.parametrize("name", sorted(EXPECTED_DEVICES))
    def test_sweep_engine_rejects(self, name, ratio, small_workload):
        engine = SweepEngine()
        with pytest.raises(ValueError, match=RANGE_ERROR):
            engine.frame_report(name, workload=small_workload, pruning_ratio=ratio)
        assert engine.stats.report_misses == 0


class TestDeviceCost:
    def test_accelerators_fit_on_device_budget(self):
        for name in ("flexnerfer", "neurex"):
            device = get_device(name)
            assert device.area_mm2() < 100.0
            assert max(device.power_profile().values()) < 10.0

    def test_gpu_cost_matches_spec_sheet(self):
        gpu = get_device("rtx-2080-ti")
        assert gpu.area_mm2() == pytest.approx(754.0)
        assert gpu.power_profile() == {"typical": pytest.approx(250.0)}

    def test_flexnerfer_power_grows_at_lower_precision(self):
        profile = get_device("flexnerfer").power_profile()
        assert profile["INT4"] > profile["INT8"] > profile["INT16"]

    def test_power_profile_labels_follow_the_precision_capability(self):
        for name in DEVICE_REGISTRY:
            device = get_device(name)
            profile = device.power_profile()
            if device.supports_precision:
                assert profile == {p.name: device.power_w(p) for p in PRECISION_MODES}
            else:
                native = device.native_precision
                label = native.name if native is not None else "typical"
                assert profile == {label: device.power_w()}


def _device_subclasses(cls=Device):
    for sub in cls.__subclasses__():
        yield sub
        yield from _device_subclasses(sub)


class TestOneClassPerDevice:
    """Each device is one class in its own module with one cost hook."""

    def test_device_module_defines_no_device(self):
        import repro.core.device as module

        defined = [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, Device)
            and obj is not Device
            and obj.__module__ == module.__name__
        ]
        assert defined == []

    def test_nvdla_and_tpu_entries_build_the_utilisation_models(self):
        from repro.baselines import NVDLAModel, TPUModel

        assert type(get_device("nvdla")) is NVDLAModel
        assert type(get_device("tpu")) is TPUModel

    def test_no_device_overrides_the_cost_totals(self):
        for name in DEVICE_REGISTRY:
            get_device(name)  # import every registered device class
        overriding = [
            cls.__qualname__
            for cls in _device_subclasses()
            if {"area_mm2", "power_w"} & set(vars(cls))
        ]
        assert overriding == []

    def test_single_entry_reports_keep_the_totals(self):
        # Values recorded before the cost hooks were unified.
        gpu = get_device("rtx-2080-ti")
        assert gpu.area().breakdown == {"die": 754.0}
        assert gpu.power().breakdown == {"board": 250.0}
        assert gpu.area_mm2() == 754.0 and gpu.power_w() == 250.0
        for name, watts in (("nvdla", 2.5), ("tpu", 2.0)):
            device = get_device(name)
            assert device.power_w() == watts
            assert device.power_profile() == {"INT8": watts}
            with pytest.raises(NotImplementedError):
                device.area()

    def test_plan_costs_use_the_power_proxy_for_area_less_devices(self):
        from repro.plan.evaluate import fleet_area_report, fleet_power_report

        fleet = ("nvdla", "tpu", "rtx-2080-ti")
        engine = SweepEngine()
        assert fleet_area_report(fleet, engine).breakdown == {
            "nvdla#0": 6.25,
            "tpu#1": 5.0,
            "rtx-2080-ti#2": 754.0,
        }
        assert fleet_power_report(fleet, engine).breakdown == {
            "nvdla#0": 2.5,
            "tpu#1": 2.0,
            "rtx-2080-ti#2": 250.0,
        }
