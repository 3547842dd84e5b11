"""Sparse tensor formats, footprint modelling and format selection.

This package implements the storage substrate used by FlexNeRFer's online
sparsity-aware data compression (paper Section 3.2.3 and 4.3):

* dense ("None"), COO, CSR, CSC and Bitmap encodings with loss-less
  encode/decode round trips (``repro.sparse.codecs``);
* an analytical memory-footprint model for every format at every supported
  precision (``repro.sparse.footprint``);
* the optimal-format selector that picks the format minimising memory
  footprint for a given sparsity ratio and precision mode
  (``repro.sparse.selector``);
* helpers for generating random sparse tensors with a target sparsity ratio
  (``repro.sparse.tensor``).
"""
