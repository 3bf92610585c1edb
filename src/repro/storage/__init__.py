"""fio-style storage workload generation against the simulated SSD."""

from repro.storage.engine import (
    IntervalSample,
    IoEngine,
    JobResult,
    JobStepper,
    precondition,
)
from repro.storage.fio import FioJob, SteadyState, parse_size
from repro.storage.jobfile import (
    JobOutcome,
    JobRunner,
    load_jobfile,
    parse_jobfile,
    run_jobfile,
    write_report,
)

__all__ = [
    "FioJob",
    "SteadyState",
    "parse_size",
    "IoEngine",
    "JobResult",
    "JobStepper",
    "IntervalSample",
    "precondition",
    "JobOutcome",
    "JobRunner",
    "parse_jobfile",
    "load_jobfile",
    "run_jobfile",
    "write_report",
]
