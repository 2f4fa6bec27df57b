"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces GridSim in the original
paper: a minimal but complete event-driven simulator with

* a binary-heap event queue with stable FIFO tie-breaking
  (:mod:`repro.sim.kernel`),
* typed, cancellable events (:mod:`repro.sim.events`),
* named, deterministic random-number streams so that every experiment
  is a pure function of ``(config, seed)`` (:mod:`repro.sim.rng`),
* an event trace recorder for observability (:mod:`repro.sim.trace`).
"""

from repro.sim.events import Event, EventPriority
from repro.sim.kernel import Simulator, SimulationError
from repro.sim.rng import RngStreams
from repro.sim.trace import EventTrace, TraceRecord

__all__ = [
    "Event",
    "EventPriority",
    "EventTrace",
    "RngStreams",
    "SimulationError",
    "Simulator",
    "TraceRecord",
]
