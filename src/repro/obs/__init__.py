"""repro.obs — the observability layer.

Everything needed to see *inside* a simulation run:

* :mod:`repro.obs.metrics` — deterministic counters/gauges/histograms;
* :mod:`repro.obs.hooks` — the observer protocols the core exposes;
* :mod:`repro.obs.session` — :class:`ObsSession` wires one run,
  :class:`RunSink` captures many;
* :mod:`repro.obs.profiling` — wall-time and heap-depth profiling;
* :mod:`repro.obs.exporters` — JSON-lines, Prometheus text, run report;
* :mod:`repro.obs.inspect` — replay a JSON-lines log;
* :mod:`repro.obs.log` — the shared ``repro.*`` logging configuration.

See ``docs/OBSERVABILITY.md`` for the full guide.
"""
