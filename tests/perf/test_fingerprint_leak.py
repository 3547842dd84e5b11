"""End-to-end proof of the STORE001 hazard and its fix.

The rule's claim is behavioural, not stylistic: a device class whose
``__init__`` sets a knob that ``_fingerprint_state()`` never emits will
(a) trip STORE001 and (b) *actually* replay a stale result from the
persistent store, because both configurations collide on one cache key.
This module pins both halves against the same fixture source: the file is
written to disk once, linted by ``repro.analysis`` AND imported as a live
module, so the rule and the store demo are guaranteed to judge identical
code.  A corrected device class in the same file shows the fix clearing both
the rule and the stale hit.
"""

import importlib.util

import pytest

from repro.analysis import run_lint
from repro.nerf.models import FrameConfig, get_model
from repro.perf.store import (
    ResultStore,
    StoreKey,
    report_from_dict,
    report_to_dict,
    workload_digest,
)

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


def _key(device):
    return StoreKey(
        device_fingerprint=device.fingerprint(),
        workload_digest=workload_digest(WORKLOAD),
        precision="INT16",
        pruning_ratio=0.0,
    )


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

    def test_leak_causes_a_demonstrably_stale_warm_hit(self, fixture, tmp_path):
        _, m = fixture
        store = ResultStore(tmp_path / "store")
        honest = m.LeakyDevice(gain=1.0)
        doubled = m.LeakyDevice(gain=2.0)
        # The leak: two behaviourally different devices share one key.
        assert honest.fingerprint() == doubled.fingerprint()

        cold = honest.render_frame(WORKLOAD)
        store.put(_key(honest), report_to_dict(cold))

        payload = store.get(_key(doubled))
        assert payload is not None  # warm path replays the gain=1.0 result
        stale = report_from_dict(payload)
        assert stale.latency_s == cold.latency_s
        fresh = doubled.render_frame(WORKLOAD)
        assert fresh.latency_s == pytest.approx(2.0 * cold.latency_s)
        assert stale.latency_s != fresh.latency_s  # i.e. the hit is WRONG

    def test_fingerprinting_the_knob_partitions_the_store(self, fixture, tmp_path):
        _, m = fixture
        store = ResultStore(tmp_path / "store")
        one = m.FixedDevice(gain=1.0)
        two = m.FixedDevice(gain=2.0)
        assert one.fingerprint() != two.fingerprint()
        store.put(_key(one), report_to_dict(one.render_frame(WORKLOAD)))
        assert store.get(_key(two)) is None  # miss -> honest cold re-run
