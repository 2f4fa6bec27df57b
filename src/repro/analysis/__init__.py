"""Static and runtime analysis of the code itself.

* :mod:`repro.analysis.lint` — ``repro lint``, the determinism and
  concurrency analyzer (one parse per file, every rule in one pass);
* :mod:`repro.analysis.flow` — the whole-program passes it runs;
* :mod:`repro.analysis.sanitizer` — the ``REPRO_SANITIZE=1`` runtime
  cross-check of the static determinism rules.

The series helpers the paper's claims use live in
:mod:`repro.experiments` (``compare``, ``stats``, ``asciichart``).
"""
