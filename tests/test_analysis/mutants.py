"""The mutation corpus that decides which `repro lint` rules keep their place.

Each entry is ``(rule, path, old, new)``: ``path`` is relative to
``src/repro``, ``old`` occurs exactly once in today's file, and
replacing it with ``new`` plants one bug of the kind ``rule`` was
written for.  ``rule`` names the rule the mutant targets in the
catalog as it stood before the analyzers merged; :data:`REPORTED_BY`
maps a retired id to the rule that reports its mutants now.

``tests/test_analysis/test_mutation_corpus.py`` applies every edit to a
copy of ``src/repro``, runs the one pass, and asserts that each mutant
is flagged by its rule alone and that every catalog rule is the only
rule flagging at least one mutant.
"""

from __future__ import annotations

#: Retired rule id -> the catalog rule that flags its mutants now.
REPORTED_BY = {
    "DET001": "FLOW001",  # every deterministic-package function is a root
    "CONC003": "CONC001",  # metric self-state is shared state too
    "FLOW003": "CONC001",  # the `locked` marker is verified where it is trusted
}

MUTANTS: tuple[tuple[str, str, str, str], ...] = (
    # A wall-clock default inside compute_metrics.  Before the merge
    # only DET001 saw it: no decision-path root reaches compute_metrics.
    ("DET001", "metrics/summary.py",
     "    utilisation = 0.0\n",
     "    import time\n\n"
     "    horizon = time.time() if horizon is None else horizon\n"
     "    utilisation = 0.0\n"),
    # A wall-clock read at import time, outside any function.
    ("DET001", "sim/events.py",
     "import enum\n",
     "import enum\nimport time\n\n_LOADED_AT = time.time()\n"),
    # Nodes shuffled through a from-imported `random.shuffle`: the bare
    # call resolves through the module's import table.
    ("DET001", "scheduling/edf.py",
     "        job.mark_running(now, [n.node_id for n in nodes])\n",
     "        from random import shuffle\n\n"
     "        shuffle(nodes)\n"
     "        job.mark_running(now, [n.node_id for n in nodes])\n"),
    # De-duplicated policy names, iterated without sorting.
    ("DET002", "scheduling/registry.py",
     "    return sorted(_REGISTRY)\n",
     "    names = set(_REGISTRY)\n    return [name for name in names]\n"),
    # Algorithm 1's zero-risk test as a bare float comparison.
    ("DET003", "scheduling/risk.py",
     "        return exact_zero(self.sigma)\n",
     "        return self.sigma == 0.0\n"),
    # The dispatch critical section narrowed to the poll: the engine is
    # then mutated by _execute with no lock held.
    ("CONC001", "service/server.py",
     "            with self._engine_lock:\n"
     "                self.engine.poll()\n"
     "                response = self._execute(request)\n"
     "                self._maybe_compact()\n",
     "            with self._engine_lock:\n"
     "                self.engine.poll()\n"
     "            response = self._execute(request)\n"
     "            with self._engine_lock:\n"
     "                self._maybe_compact()\n"),
    # checkpoint.restore without its pre-publication exemption: the
    # `safe=CONC001` pragma is what keeps its engine writes legal.
    ("CONC001", "service/checkpoint.py",
     "def restore(  # repro-lint: safe=CONC001  builds a private engine; "
     "not shared until returned\n",
     "def restore(\n"),
    # A histogram updated outside its own lock.  Its one caller holds
    # the engine lock, which does not exclude the /metrics renderer.
    ("CONC003", "obs/metrics.py",
     "        with self._lock:\n"
     "            self.sum += value\n"
     "            self.count += 1\n",
     "        self.sum += value\n"
     "        self.count += 1\n"
     "        if True:\n"),
    # A public protocol function loses its return annotation.
    ("API001", "service/protocol.py",
     "def encode(response: dict[str, Any]) -> bytes:\n",
     "def encode(response: dict[str, Any]):\n"),
    # A wall-clock stamp one call below build_trace, in the engine's
    # trace-id read.
    ("FLOW001", "service/engine.py",
     "    def trace_id(self, job_id: int) -> Optional[str]:\n",
     "    def trace_id(self, job_id: int) -> Optional[str]:\n"
     "        import time\n\n"
     "        self.read_at = time.monotonic()\n"),
    # The inflight lock taken before the engine lock, the reverse of
    # health_response's order.
    ("FLOW002", "service/server.py",
     "            with self._inflight_lock:\n"
     "                self._shed_total += 1\n",
     "            with self._inflight_lock:\n"
     "                self._shed_total += 1\n"
     "                with self._engine_lock:\n"
     "                    self.engine.poll()\n"),
    # An unlocked call into the `locked` _apply_logged.
    ("FLOW003", "service/server.py",
     "        with self._engine_lock:\n"
     "            self.engine.poll()\n"
     '            return protocol.ok_response("stats", stats=self.engine.stats())\n',
     "        self._apply_logged(None, self.engine.poll)\n"
     "        with self._engine_lock:\n"
     '            return protocol.ok_response("stats", stats=self.engine.stats())\n'),
    # The engine applies a submit before the WAL holds it.
    ("FLOW004", "service/server.py",
     "        lsn = self._wal_append(payload, clamp)\n"
     "        decision = self._apply_logged(\n"
     "            lsn, lambda: engine.submit(\n"
     "                job, clamp_past=clamp, trace=request.trace, wal_lsn=lsn or 0\n"
     "            )\n"
     "        )\n",
     "        decision = self._apply_logged(\n"
     "            None, lambda: engine.submit(\n"
     "                job, clamp_past=clamp, trace=request.trace, wal_lsn=0\n"
     "            )\n"
     "        )\n"
     "        lsn = self._wal_append(payload, clamp)\n"),
)
