"""Network-on-chip substrate.

Implements the interconnect structures compared in the paper:

* 2x2 and 3x3 switching nodes (``repro.noc.switch``);
* the hierarchical mesh NoC of Eyeriss v2 (HM-NoC) and FlexNeRFer's extended
  hierarchical mesh with feedback (HMF-NoC) (``repro.noc.hierarchical``);
* the 1D mesh used for unicast operand delivery (``repro.noc.mesh``);
* the Benes permutation network used by the SIGMA baseline
  (``repro.noc.benes``);
* dataflow classification (unicast / multicast / broadcast) of an operand
  assignment (``repro.noc.dataflow``);
* an energy model for comparing distribution networks
  (``repro.noc.energy``).
"""
