"""End-to-end proof of the STORE001 hazard and its fix.

The rule's claim is behavioural, not stylistic: a device class whose
``__init__`` sets a knob that ``_fingerprint_state()`` never emits will
(a) trip STORE001 and (b) *actually* replay a stale report from the sweep
engine's report tier, which is keyed on the device fingerprint, because
both configurations collide on one cache key.
This module pins both halves against the same fixture source: the file is
written to disk once, linted by ``repro.analysis`` AND imported as a live
module, so the rule and the store demo are guaranteed to judge identical
code.  A corrected device class in the same file shows the fix clearing both
the rule and the stale hit.  Each demo registers its device, runs one
frame, then re-registers the name with ``overwrite=True`` at twice the
gain on the same engine.
"""

import importlib.util

import pytest

from repro.analysis import run_lint
from repro.core.device import DEVICE_REGISTRY, get_device, register_device
from repro.nerf.models import FrameConfig, get_model
from repro.sim.sweep import SweepEngine

FIXTURE_SOURCE = '''\
"""A deliberately cache-unsafe device class (STORE001 demo fixture)."""

import dataclasses
from typing import Any

from repro.core.accelerator import FlexNeRFer
from repro.core.device import Device


class LeakyDevice(Device):
    """Scales latency by ``gain`` -- which never reaches the cache key."""

    name = "leaky"

    def __init__(self, gain: float = 1.0) -> None:
        self.gain = gain
        self.inner = FlexNeRFer()

    def _fingerprint_state(self) -> dict[str, Any]:
        return {"inner": self.inner.fingerprint()}

    def render_frame(self, workload, *, precision=None, pruning_ratio=0.0):
        report = self.inner.render_frame(
            workload, precision=precision, pruning_ratio=pruning_ratio
        )
        return dataclasses.replace(
            report, latency_s=report.latency_s * self.gain
        )


class FixedDevice(LeakyDevice):
    """The corrected device class: ``gain`` feeds the fingerprint."""

    name = "fixed"

    def __init__(self, gain: float = 1.0) -> None:
        super().__init__(gain)
        self.gain = gain

    def _fingerprint_state(self) -> dict[str, Any]:
        return {**super()._fingerprint_state(), "gain": self.gain}
'''

WORKLOAD = get_model("instant-ngp").build_workload(
    FrameConfig(image_width=100, image_height=100)
)


@pytest.fixture()
def registered():
    """Registers devices by name; removes every name it added afterwards."""
    names = []

    def register(name, factory, overwrite=False):
        register_device(name, factory, overwrite=overwrite)
        names.append(name)

    yield register
    for name in names:
        DEVICE_REGISTRY.pop(name, None)


@pytest.fixture()
def fixture(tmp_path):
    """The fixture source on disk plus the same source as a live module."""
    tree = tmp_path / "tree"
    tree.mkdir()
    path = tree / "leaky_device.py"
    path.write_text(FIXTURE_SOURCE)
    spec = importlib.util.spec_from_file_location("store001_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tree, module


class TestStore001EndToEnd:
    def test_rule_flags_exactly_the_leaky_knob(self, fixture):
        tree, _ = fixture
        report = run_lint(tree, rule_ids=["STORE001"])
        assert [f.rule_id for f in report.findings] == ["STORE001"]
        (finding,) = report.findings
        assert "LeakyDevice" in finding.message
        assert "'gain'" in finding.message
        # The corrected subclass is clean: its override unions with the
        # inherited fingerprint, covering both behavioural attributes.
        assert "FixedDevice" not in finding.message

    def test_leak_causes_a_demonstrably_stale_warm_hit(self, fixture, registered):
        _, m = fixture
        engine = SweepEngine()
        registered("leaky", lambda: m.LeakyDevice(gain=1.0))
        cold = engine.frame_report("leaky", workload=WORKLOAD)
        registered("leaky", lambda: m.LeakyDevice(gain=2.0), overwrite=True)
        # The leak: two behaviourally different devices share one key.
        assert engine.device("leaky").gain == 2.0

        stale = engine.frame_report("leaky", workload=WORKLOAD)
        assert stale is cold  # the report tier replays the gain=1.0 report
        assert engine.stats.render_calls == 1
        fresh = get_device("leaky").render_frame(WORKLOAD)
        assert fresh.latency_s == pytest.approx(2.0 * cold.latency_s)
        assert stale.latency_s != fresh.latency_s  # i.e. the hit is WRONG

    def test_fingerprinting_the_knob_partitions_the_report_tier(self, fixture, registered):
        _, m = fixture
        engine = SweepEngine()
        registered("fixed", lambda: m.FixedDevice(gain=1.0))
        one = engine.frame_report("fixed", workload=WORKLOAD)
        registered("fixed", lambda: m.FixedDevice(gain=2.0), overwrite=True)
        two = engine.frame_report("fixed", workload=WORKLOAD)
        assert engine.stats.render_calls == 2  # miss -> honest cold re-run
        assert two.latency_s == pytest.approx(2.0 * one.latency_s)
