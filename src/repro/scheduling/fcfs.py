"""First-Come First-Served baseline (extension beyond the paper).

Identical machinery to EDF but selects jobs strictly in arrival order.
Useful as a deadline-oblivious control: the gap between FCFS and EDF
isolates what deadline-aware *ordering* buys, independently of
admission control.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.scheduling.edf import QueuedSpaceSharedPolicy


class FCFSPolicy(QueuedSpaceSharedPolicy):
    """Dispatch queued jobs in submission order."""

    name = "fcfs"

    def select_next(self, now: float) -> Optional[Job]:
        if not self.queue:
            return None
        return min(self.queue, key=lambda j: (j.submit_time, j.job_id))
