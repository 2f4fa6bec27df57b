"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces GridSim in the original
paper: a minimal but complete event-driven simulator with

* a binary-heap event queue with stable FIFO tie-breaking
  (:mod:`repro.sim.kernel`),
* typed, cancellable events (:mod:`repro.sim.events`),
* named, deterministic random-number streams so that every experiment
  is a pure function of ``(config, seed)`` (:mod:`repro.sim.rng`).

``Simulator(on_event=...)`` is the one per-event observer hook.
"""
