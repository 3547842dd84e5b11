"""Array and network sizes reject NaN, infinity, fractions and bools.

A plain ``x < 1`` size check lets NaN through (every comparison with NaN
is false), and ``Mesh1D(nan)`` used to build a mesh of ``nan`` nodes,
while ``TPUModel().gemm_utilization(nan, 8, 8)`` returned ``nan`` and a
2.5-row GEMM got a utilisation.  Every such size goes through
:func:`repro.validate.require_count`, which names the input in a one-line
error.
"""

import pytest

from repro.baselines.nvdla import NVDLAModel
from repro.baselines.tpu import TPUModel
from repro.noc.hierarchical import HMFNoC, HMNoC
from repro.noc.mesh import Mesh1D

#: (input name, call with one bad value); the other arguments are valid.
SIZED = (
    ("num_nodes", lambda v: Mesh1D(v)),
    ("num_leaves", lambda v: HMNoC(v)),
    ("num_leaves", lambda v: HMFNoC(v)),
    ("fanout", lambda v: HMNoC(8, fanout=v)),
    ("m", lambda v: TPUModel().gemm_utilization(v, 8, 8)),
    ("k", lambda v: TPUModel().gemm_utilization(8, 8, v)),
    ("input_channels", lambda v: NVDLAModel().conv_utilization(v, 8)),
    ("output_channels", lambda v: NVDLAModel().conv_utilization(8, v)),
    ("n", lambda v: NVDLAModel().gemm_utilization(8, v, 8)),
)


@pytest.mark.parametrize("value", (float("nan"), float("inf"), 2.5, True), ids=repr)
@pytest.mark.parametrize(
    ("name", "build"), SIZED, ids=[f"{i}-{case[0]}" for i, case in enumerate(SIZED)]
)
def test_bad_sizes_raise_one_line_errors_naming_the_input(name, build, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= ") as error:
        build(value)
    assert "\n" not in str(error.value)


@pytest.mark.parametrize(("name", "build"), SIZED, ids=[c[0] for c in SIZED])
def test_valid_sizes_still_build(name, build):
    build(8)
