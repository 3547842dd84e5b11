"""Bit-exact pins of every device's frame reports.

The experiment goldens round to 0.1, so they cannot catch a refactor that
nudges one op's latency or energy in the last bits.  These digests hash
the full serialized report -- per-op trace records included -- so any
change to a device's frame model, however small, fails here.  A
deliberate model change re-records the affected digest.
"""

import hashlib
import json
from typing import Any

import pytest

from repro.core.device import DEVICE_REGISTRY, FrameReport, get_device
from repro.nerf.models import MODEL_REGISTRY, FrameConfig, get_model
from repro.sparse.formats import Precision

CONFIG = FrameConfig(image_width=64, image_height=64, batch_size=1024)

#: sha256 over the reports of every model, in registry order, at default knobs.
DEVICE_PINS = {
    "flexnerfer": (
        "20d3a9fd3788e3e56260e0eb72cce18f"
        "616ef2d5dc6bb39333e8007cd7c4ca40"
    ),
    "neurex": (
        "2d97bc8cbcad37c93414cdbc11be0a3f"
        "24fa64d70ec2cb2a27dbb6a2872d159a"
    ),
    "rtx-2080-ti": (
        "831f2d03eb5227fcd75771ea0353ebb4"
        "94b9c22a7cc9df5ea3a7ffe2e5bb0eb7"
    ),
    "rtx-4090": (
        "689b738807808fa8a25c9a81a1ea9614"
        "aee72ba8c039ee2fa416e57f248d6cdb"
    ),
    "jetson-nano": (
        "57d0685359a5c21c0745cbd6ed391dc9"
        "446a54a67d50090175866a445fc80369"
    ),
    "xavier-nx": (
        "65fbf967671dbdb3286eb636a589747d"
        "00c2c27a7fbfc2953f0a62473991e14b"
    ),
    "nvdla": (
        "aa39c691aa9b577bd3a75d49b830be0b"
        "23b007b5142e474501d1204bd0568cf0"
    ),
    "tpu": (
        "04f6a2e742207ac50c12faea67e22371"
        "9f63a84f35d1584adf0ad5db7f485463"
    ),
}

#: FlexNeRFer over every model at each (precision, pruning ratio) point.
KNOB_PINS = {
    (Precision.INT16, 0.0): (
        "20d3a9fd3788e3e56260e0eb72cce18f"
        "616ef2d5dc6bb39333e8007cd7c4ca40"
    ),
    (Precision.INT16, 0.5): (
        "d4332afb6c90adab4fe503fb23c17558"
        "1014bf9fafbf41734aa6bd0c14805ac9"
    ),
    (Precision.INT8, 0.0): (
        "c51b8b99b68927c26c5551c1c8860253"
        "15888a11be9bc5848d68929040171465"
    ),
    (Precision.INT8, 0.5): (
        "bd01f036f97ff879108eb9e0875acd9a"
        "de05840a8d55177e23d7889355a34bb9"
    ),
    (Precision.INT4, 0.0): (
        "67c93921997ddbe70c97bfabdb8f1b63"
        "634df742f48c361c85a27895983f71ad"
    ),
    (Precision.INT4, 0.5): (
        "52f91cd6af1c6a3863354f1d9258b381"
        "13fe40bdbe553c00425dd0dca38c25e1"
    ),
}


def report_to_dict(report: "FrameReport") -> dict[str, Any]:
    """JSON-safe representation of a report, the recipe behind every pin.

    Python's ``json`` emits floats via ``repr``, which round-trips IEEE-754
    doubles exactly, so the digests see every bit of latency / energy /
    per-op numbers.
    """
    return {
        "device": report.device,
        "model_name": report.model_name,
        "latency_s": report.latency_s,
        "energy_j": report.energy_j,
        "precision": report.precision.name if report.precision else None,
        "extra": dict(report.extra),
        "trace": {
            "device": report.trace.device,
            "model_name": report.trace.model_name,
            "records": [
                {
                    "name": r.name,
                    "category": r.category.name,
                    "time_s": r.time_s,
                    "energy_j": r.energy_j,
                    "compute_time_s": r.compute_time_s,
                    "dram_time_s": r.dram_time_s,
                    "format_conversion_time_s": r.format_conversion_time_s,
                    "dram_bytes": r.dram_bytes,
                    "utilization": r.utilization,
                }
                for r in report.trace.records
            ],
        },
    }


@pytest.fixture(scope="module")
def workloads():
    return [get_model(name).build_workload(CONFIG) for name in MODEL_REGISTRY]


def digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
    return h.hexdigest()


def test_every_registered_device_is_pinned():
    assert set(DEVICE_REGISTRY) == set(DEVICE_PINS)


@pytest.mark.parametrize("name", sorted(DEVICE_PINS))
def test_default_knob_reports_are_bit_exact(name, workloads):
    device = get_device(name)
    assert digest(device.render_frame(w) for w in workloads) == DEVICE_PINS[name]


@pytest.mark.parametrize(
    "precision,pruning", sorted(KNOB_PINS, key=lambda k: (k[0].name, k[1]))
)
def test_flexnerfer_knob_reports_are_bit_exact(precision, pruning, workloads):
    device = get_device("flexnerfer")
    reports = (
        device.render_frame(w, precision=precision, pruning_ratio=pruning)
        for w in workloads
    )
    assert digest(reports) == KNOB_PINS[precision, pruning]
