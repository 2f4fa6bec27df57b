"""Cluster substrate: jobs, nodes, the cluster, and the RMS front-end.

Models the machine the paper simulates — an IBM SP2-class cluster of
``m`` computation nodes, each with a SPEC rating — together with the
two execution disciplines the compared policies need:

* **space-shared** nodes (one task per node at a time) for EDF;
* **time-shared proportional-share** nodes (Libra's Eq. 1–2 shares)
  for Libra and LibraRisk.

The :class:`~repro.cluster.rms.ResourceManagementSystem` is the single
submission interface required by the paper's scenario (Section 3): all
jobs enter through it, so the admission control is aware of the whole
cluster workload.
"""
