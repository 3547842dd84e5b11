"""NeRF algorithm substrate.

Functional NumPy implementations of the NeRF rendering pipeline (paper
Section 2.1.1): ray generation and sampling, sinusoidal positional encoding
(exact and the hardware-approximated form of Eqs. 5-6), multi-resolution hash
encoding with trilinear interpolation, MLP evaluation, and volume rendering.
On top of that, :mod:`repro.nerf.models` provides per-frame *workload
descriptors* for the seven NeRF models evaluated in the paper, which feed both
the GPU baseline and the accelerator simulator.
"""
