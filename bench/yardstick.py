"""A fixed pure-Python workload that measures how fast the machine is right now.

On a small shared VM whole runs drift together: ten consecutive runs of
one workload read 20-25 % apart while *every* timing in a run — loop
time, set-up time, restart time — moves in step, for minutes at a time.
No estimator inside a run can remove that, so each run samples this
yardstick throughout and reports its timing metrics at the speed of a
reference machine, on which one sample takes ``REFERENCE_S``.

The workload touches nothing under ``src/``: a change to the program
cannot move it.  It mixes what the program does — attribute-heavy walks
over slotted objects (node scans), a tuple heap (the kernel), a dict of
floats (ledgers), and JSON round trips (the protocol).
"""

from __future__ import annotations

import heapq
import json
from time import perf_counter

#: Seconds one sample takes on the reference machine (a 2.1 GHz Xeon
#: vCPU in its undisturbed state); only sets the scale of the metrics.
REFERENCE_S = 0.015

_CELLS = 4096
_DOC = {"v": 1, "type": "submit", "job": {
    "id": 17, "submit_time": 1234.5, "runtime": 100.0, "estimated_runtime": 150.0,
    "numproc": 4, "deadline": 500.0, "urgency": "low",
}}


class _Cell:
    __slots__ = ("a", "b", "c", "peers")

    def __init__(self, i: int) -> None:
        self.a = float(i)
        self.b = i * 0.5
        self.c = 0.0
        self.peers: list[_Cell] = []


class Yardstick:
    """Build the fixed data once; ``sample()`` times one traversal of it."""

    def __init__(self) -> None:
        self.cells = [_Cell(i) for i in range(_CELLS)]
        for i, cell in enumerate(self.cells):
            cell.peers = [self.cells[(i * 7 + k * 131) % _CELLS] for k in range(4)]
        self.samples: list[float] = []

    def sample(self, times: int = 3) -> None:
        """Append ``times`` samples (seconds each) to :attr:`samples`."""
        for _ in range(times):
            self.samples.append(self._once())

    def _once(self) -> float:
        t0 = perf_counter()
        heap: list[tuple[float, int]] = []
        table: dict[float, float] = {}
        acc = 0.0
        for _ in range(6):
            for cell in self.cells:
                total = cell.a
                for peer in cell.peers:
                    total += peer.b
                cell.c = total if total > acc else acc
                acc += total * 1e-9
                table[cell.a] = total
            for i in range(1500):
                heapq.heappush(heap, ((i * 7919) % 1000 + acc, i))
            while heap:
                heapq.heappop(heap)
            for _ in range(150):
                json.loads(json.dumps(_DOC, sort_keys=True))
        return perf_counter() - t0
