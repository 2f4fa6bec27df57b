"""repro — reproduction of Yeo & Buyya, ICPP 2006.

"Managing Risk of Inaccurate Runtime Estimates for Deadline Constrained
Job Admission Control in Clusters."

The package implements, from scratch:

* a deterministic discrete-event simulator (:mod:`repro.sim`);
* a cluster model with space-shared and proportional-share nodes
  (:mod:`repro.cluster`);
* a workload substrate — SWF trace handling, a synthetic SDSC-SP2-like
  generator, estimate and deadline models (:mod:`repro.workload`);
* the paper's three admission controls — EDF, Libra and **LibraRisk**
  — plus an FCFS baseline (:mod:`repro.scheduling`);
* the paper's metrics (:mod:`repro.metrics`) and the experiment
  harness that regenerates every figure (:mod:`repro.experiments`);
* an observability layer — metrics registry, admission-decision
  tracing, profiling hooks and exporters (:mod:`repro.obs`);
* an online admission-control service — incremental engine, JSON
  protocol, HTTP server, checkpoint/restore and trace replay
  (:mod:`repro.service`).

Quickstart
----------
>>> from repro.experiments import ScenarioConfig, run_scenario
>>> result = run_scenario(ScenarioConfig(policy="librarisk", num_jobs=300))
>>> 0.0 <= result.metrics.pct_deadlines_fulfilled <= 100.0
True
"""

__version__ = "1.0.0"
