"""Workload substrate: traces, synthetic generation, estimates, deadlines.

The paper drives its simulations with the last 3000 jobs of the SDSC
SP2 trace (Parallel Workloads Archive, SWF format), a deadline model
layered on top (high/low urgency classes), and a runtime-estimate
model (accurate vs. the trace's actual user estimates).

This package provides each piece:

* :mod:`repro.workload.swf` — a complete Standard Workload Format
  reader/writer, so the genuine trace file is used when present;
* :mod:`repro.workload.synthetic` — a seeded statistical generator
  calibrated to the SDSC SP2 subset's published statistics, used when
  the archive file is unavailable (see DESIGN.md §2);
* :mod:`repro.workload.estimates` — user runtime-estimate models,
  including the paper's inaccuracy-percentage interpolation (§5.5);
* :mod:`repro.workload.deadlines` — the urgency-class deadline
  assignment of §4;
* :mod:`repro.workload.traces` — subsetting, statistics, and the
  pipeline that turns all of the above into simulator jobs.
"""

from repro.workload.swf import SWFHeader, SWFRecord, parse_swf, read_swf_file, write_swf_file
from repro.workload.synthetic import SDSCSP2Model, generate_sdsc_like_records
from repro.workload.estimates import (
    ModalOverestimateModel,
    accurate_estimates,
    interpolate_inaccuracy,
)
from repro.workload.deadlines import DeadlineModel
from repro.workload.traces import (
    WorkloadSpec,
    build_jobs,
    describe_records,
    records_to_jobs,
    scale_arrivals,
    tail_subset,
)

__all__ = [
    "DeadlineModel",
    "ModalOverestimateModel",
    "SDSCSP2Model",
    "SWFHeader",
    "SWFRecord",
    "WorkloadSpec",
    "accurate_estimates",
    "build_jobs",
    "describe_records",
    "generate_sdsc_like_records",
    "interpolate_inaccuracy",
    "parse_swf",
    "read_swf_file",
    "records_to_jobs",
    "scale_arrivals",
    "tail_subset",
    "write_swf_file",
]
