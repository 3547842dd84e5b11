"""Ablation: HMF-NoC vs HM-NoC energy and CLB bandwidth utilisation.

Two design choices called out in Section 4.1 are ablated here:

* replacing Eyeriss v2's HM-NoC with FlexNeRFer's HMF-NoC (3x3 switches with a
  feedback path) cuts on-chip-memory access energy -- the paper reports ~2.5x
  on its traffic traces;
* the column-level bypass links (CLBs) restore full MAC-unit input bandwidth
  in the 8- and 16-bit modes (25 % / 50 % utilisation without them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distribution import DistributionNetwork
from repro.experiments.api import experiment
from repro.noc.energy import NoCEnergyModel
from repro.noc.hierarchical import HMFNoC, HMNoC
from repro.sparse.formats import Precision


@dataclass(frozen=True)
class NoCAblationResult:
    """Energy and bandwidth comparison of the NoC design choices."""

    memory_access_energy_ratio: float            # HM-NoC energy / HMF-NoC energy
    hm_buffer_reads: int
    hmf_buffer_reads: int
    clb_bandwidth_utilization: dict[Precision, float]
    no_clb_bandwidth_utilization: dict[Precision, float]


def _traffic_patterns(num_leaves: int, num_steps: int, reuse: float, rng: np.random.Generator):
    """Generate distribution steps where a fraction of operands is reused.

    NeRF GEMM tiles reuse weight elements across consecutive mapping steps
    (the same weight column serves many activation rows), which is exactly the
    reuse the HMF-NoC feedback path exploits.
    """
    patterns = []
    current = [f"w{i}" for i in range(num_leaves)]
    for step in range(num_steps):
        pattern = []
        for leaf in range(num_leaves):
            if rng.random() < reuse:
                pattern.append(current[leaf])
            else:
                pattern.append(f"w{step}_{leaf}")
        current = pattern
        patterns.append(pattern)
    return patterns


def _render(result: NoCAblationResult) -> str:
    """Buffer-read / energy preamble plus the per-mode CLB bandwidth grid."""
    lines = [
        f"HM-NoC buffer reads:  {result.hm_buffer_reads}",
        f"HMF-NoC buffer reads: {result.hmf_buffer_reads}",
        f"on-chip memory access energy ratio (HM / HMF): {result.memory_access_energy_ratio:.2f}x",
        "",
        f"{'mode':<8} {'BW util w/ CLB':>15} {'BW util w/o CLB':>16}",
    ]
    for precision in (Precision.INT16, Precision.INT8, Precision.INT4):
        lines.append(
            f"{precision.name:<8} {result.clb_bandwidth_utilization[precision] * 100:>14.0f}% "
            f"{result.no_clb_bandwidth_utilization[precision] * 100:>15.0f}%"
        )
    return "\n".join(lines)


@experiment(
    "ablation-noc",
    title="HMF-NoC vs HM-NoC energy, CLB bandwidth",
    tags=("ablation", "noc"),
    params={
        "num_leaves": "distribution-tree leaf count",
        "num_steps": "mapping steps to replay",
        "reuse": "fraction of operands reused per step",
        "seed": "traffic-pattern RNG seed",
    },
    render=_render,
)
def run(
    num_leaves: int = 64,
    num_steps: int = 64,
    reuse: float = 0.6,
    seed: int = 0,
) -> NoCAblationResult:
    """Replay the same distribution traffic through HM-NoC and HMF-NoC."""
    rng = np.random.default_rng(seed)
    patterns = _traffic_patterns(num_leaves, num_steps, reuse, rng)

    hm = HMNoC(num_leaves)
    hmf = HMFNoC(num_leaves)
    hm_results = [hm.route(p) for p in patterns]
    hmf_results = [hmf.route(p) for p in patterns]

    model = NoCEnergyModel()
    ratio = model.memory_access_energy_ratio(hm_results, hmf_results)

    return NoCAblationResult(
        memory_access_energy_ratio=ratio,
        hm_buffer_reads=sum(r.buffer_reads for r in hm_results),
        hmf_buffer_reads=sum(r.buffer_reads for r in hmf_results),
        clb_bandwidth_utilization={
            p: DistributionNetwork.clb_bandwidth_utilization(p, with_clb=True)
            for p in Precision
        },
        no_clb_bandwidth_utilization={
            p: DistributionNetwork.clb_bandwidth_utilization(p, with_clb=False)
            for p in Precision
        },
    )
