"""Quantization substrate: INT4/8/16 symmetric quantization, outlier-aware
mixed-precision quantization, and image-quality metrics (PSNR / MSE).

Used by the PSNR-vs-energy sensitivity study (paper Fig. 20(a)) and by the
workload descriptors that execute NeRF layers at reduced precision.
"""
