"""Hardware cost models (28 nm) used throughout the evaluation.

The paper obtains area and power from Synopsys synthesis / place-and-route in
a 28 nm CMOS process at 800 MHz.  We substitute an analytical component-level
model calibrated against the block-level numbers the paper publishes (MAC unit
area/power in Fig. 12(c), array-level costs in Table 3 / Fig. 15, accelerator
level costs in Fig. 16/17).  The evaluation only ever consumes block-level
aggregates, so this substitution preserves every reported comparison.
"""
