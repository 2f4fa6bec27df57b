"""Deadline-constrained job admission controls.

The three policies compared in the paper:

* :class:`~repro.scheduling.edf.EDFPolicy` — non-preemptive Earliest
  Deadline First on space-shared nodes with the paper's *relaxed*
  admission control (reject only at dispatch time);
* :class:`~repro.scheduling.libra.LibraPolicy` — Libra's
  deadline-based proportional processor share with best-fit node
  selection (Sherwani et al. 2004, as summarised in §3.1);
* :class:`~repro.scheduling.librarisk.LibraRiskPolicy` — the paper's
  contribution: admission by the *risk of deadline delay* σ_j
  (Eq. 4–6, Algorithm 1).

One baseline beyond the paper:

* :class:`~repro.scheduling.fcfs.FCFSPolicy` — first-come
  first-served on space-shared nodes.

:func:`~repro.scheduling.registry.register_policy` plugs further
policies in by name.
"""

from repro.scheduling.base import SchedulingPolicy
from repro.scheduling.edf import EDFPolicy
from repro.scheduling.fcfs import FCFSPolicy
from repro.scheduling.libra import LibraPolicy
from repro.scheduling.librarisk import LibraRiskPolicy
from repro.scheduling.registry import available_policies, make_policy, register_policy
from repro.scheduling.risk import RiskAssessment, assess_delays, deadline_delay

__all__ = [
    "EDFPolicy",
    "FCFSPolicy",
    "LibraPolicy",
    "LibraRiskPolicy",
    "RiskAssessment",
    "SchedulingPolicy",
    "assess_delays",
    "available_policies",
    "deadline_delay",
    "make_policy",
    "register_policy",
]
