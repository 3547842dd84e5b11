"""Tile-level performance simulation of GEMM/GEMV arrays.

This is the repo's stand-in for the modified STONNE cycle-level simulator the
paper uses: it models how a GEMM/GEMV operation is tiled onto a MAC array,
what utilisation the mapping achieves (a rigid array's boundary-tile fill
vs. the packing efficiency of FlexNeRFer's sparsity-aware dense mapping,
chosen by ``ArrayConfig.supports_sparsity``), how many cycles the compute
takes, and how much on-chip / off-chip traffic it generates.  The same machinery is configured
differently for FlexNeRFer, NeuRex, SIGMA, Bit Fusion and the commercial
accelerators, so every latency/energy comparison in the evaluation goes
through one code path.
"""
