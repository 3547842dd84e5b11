"""Workload descriptors for the seven NeRF models evaluated in the paper.

Every model builds a :class:`repro.nerf.workload.Workload` describing the
operations of one rendered frame (800x800 by default): the GEMM/GEMV layers of
its networks, its encoding operations (positional or hash) and the remaining
miscellaneous work (ray sampling, volume rendering).  These workloads feed the
GPU baseline (Fig. 1 and Fig. 3) and the accelerator models (Fig. 18-20).
"""

from repro.nerf.models.base import FrameConfig, NeRFModel
from repro.nerf.models.vanilla import VanillaNeRF
from repro.nerf.models.kilonerf import KiloNeRF
from repro.nerf.models.nsvf import NSVF
from repro.nerf.models.mip_nerf import MipNeRF
from repro.nerf.models.instant_ngp import InstantNGP
from repro.nerf.models.ibrnet import IBRNet
from repro.nerf.models.tensorf import TensoRF

#: The seven models of the paper's evaluation, in figure order.
MODEL_REGISTRY: dict[str, type[NeRFModel]] = {
    "nerf": VanillaNeRF,
    "kilonerf": KiloNeRF,
    "nsvf": NSVF,
    "mip-nerf": MipNeRF,
    "instant-ngp": InstantNGP,
    "ibrnet": IBRNet,
    "tensorf": TensoRF,
}


def get_model(name: str) -> NeRFModel:
    """Instantiate a model descriptor by its registry name."""
    try:
        return MODEL_REGISTRY[name.lower()]()
    except KeyError as exc:
        raise KeyError(
            f"unknown NeRF model '{name}'; available: {sorted(MODEL_REGISTRY)}"
        ) from exc


__all__ = [
    "FrameConfig",
    "NeRFModel",
    "VanillaNeRF",
    "KiloNeRF",
    "NSVF",
    "MipNeRF",
    "InstantNGP",
    "IBRNet",
    "TensoRF",
    "MODEL_REGISTRY",
    "get_model",
]
