"""fio-style job descriptions.

The paper drives its SSD workloads with fio using direct I/O and the
io_uring engine (Section V-C).  :class:`FioJob` is the one description
of a job, whether a job file's section or built in code: the knobs those
experiments use — read/write pattern, block size, queue depth, runtime —
with fio's human-readable size syntax ("4k", "1m"), the directives
:meth:`~repro.storage.engine.IoEngine.run` carries out before the job
body (stonewall, format, preconditioning), and fio's steady-state
termination (:class:`SteadyState`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import GIB, KIB, MIB

PATTERNS = ("read", "write", "randread", "randwrite", "rw", "randrw")

#: Steady-state metrics (fio's ``steadystate=`` grammar).
SS_METRICS = ("iops", "bw")

# An ``i`` is only legal as part of a binary-prefix spelling (kib/mib/
# gib): accepting a dangling ``i`` made "4ib" parse as 4 bytes, which
# silently turned a typo'd block size into a one-page workload.
_SIZE_RE = re.compile(r"^(\d+(?:\.\d+)?)(?:([kmg])i?)?b?$", re.IGNORECASE)
_SUFFIX = {"": 1, "k": KIB, "m": MIB, "g": GIB}


def parse_size(text: str | int) -> int:
    """Parse fio-style sizes: "4k" -> 4096, "1m" -> 1048576, 512 -> 512."""
    if isinstance(text, int):
        if text <= 0:
            raise ConfigurationError("size must be positive")
        return text
    match = _SIZE_RE.match(text.strip())
    if not match:
        raise ConfigurationError(f"cannot parse size {text!r}")
    value, suffix = match.groups()
    return int(float(value) * _SUFFIX[(suffix or "").lower()])


@dataclass(frozen=True)
class SteadyState:
    """An ``ss=`` criterion: terminate when attained.

    ``__post_init__`` checks it, so one built in code is checked as a
    parsed one is.
    """

    metric: str  # "iops" | "bw"
    mode: str  # "slope" | "dev"
    threshold: float  # fraction of the window mean
    window_s: float = 4.0  # ss_dur
    ramp_s: float = 0.0  # ss_ramp

    def __post_init__(self) -> None:
        # A slope needs two points; a zero window would slice the whole
        # history (``per_second[-0:]``).
        need = 2 if self.mode == "slope" else 1
        problem = None
        if self.metric not in SS_METRICS:
            problem = f"metric {self.metric!r} must be one of {SS_METRICS}"
        elif self.mode not in ("slope", "dev"):
            problem = f"mode {self.mode!r} must be slope or dev"
        elif not (math.isfinite(self.threshold) and self.threshold > 0):
            problem = f"threshold {self.threshold:g} must be positive"
        elif not math.isfinite(self.window_s) or self.window < need:
            problem = (
                f"ss_dur={self.window_s:g} must round to at least {need} s "
                f"in {self.mode} mode"
            )
        elif not math.isfinite(self.ramp_s) or self.ramp_s < 0:
            problem = f"ss_ramp={self.ramp_s:g} must be >= 0"
        if problem:
            raise ConfigurationError(f"steady state: {problem}")

    @classmethod
    def parse(
        cls, text: str, window_s: float = 4.0, ramp_s: float = 0.0
    ) -> SteadyState:
        """Parse ``iops_slope:0.3%`` / ``bw:5%`` style criteria."""
        head, sep, value = text.strip().partition(":")
        if not sep or not value:
            raise ConfigurationError(
                f"steady-state spec {text!r} must be metric:threshold"
            )
        metric, _, mode = head.partition("_")
        value = value.strip()
        try:
            threshold = float(value[:-1] if value.endswith("%") else "") / 100.0
        except ValueError:
            raise ConfigurationError(
                f"steady-state threshold {value!r} must be a percentage"
            ) from None
        return cls(
            metric=metric,
            mode=mode or "dev",
            threshold=threshold,
            window_s=window_s,
            ramp_s=max(ramp_s, 0.0),
        )

    @property
    def criterion(self) -> str:
        mode = f"_{self.mode}" if self.mode == "slope" else ""
        return f"{self.metric}{mode}:{self.threshold * 100:g}%"

    @property
    def window(self) -> int:
        """The window in whole 1-second means, as the engine checks it."""
        return int(round(self.window_s))

    def check(self, window: np.ndarray) -> tuple[bool, float]:
        """Evaluate one rolling window of per-second means.

        Returns ``(attained, value)`` where ``value`` is the measured
        slope (fraction of mean per second) or max deviation (fraction
        of mean), mirroring what fio prints as ``iops slope``/``mean
        dev``.
        """
        mean = float(window.mean())
        if mean <= 0.0:
            return False, float("inf")
        if self.mode == "slope":
            x = np.arange(window.size, dtype=float)
            slope = float(np.polyfit(x, window, 1)[0])
            value = abs(slope) / mean
        else:
            value = float(np.abs(window - mean).max()) / mean
        return value <= self.threshold, value


@dataclass(frozen=True)
class FioJob:
    """One fio job: the directives before it, what to do, for how long."""

    rw: str  # read / write / randread / randwrite / rw / randrw
    bs: str | int = "4k"  # block (request) size
    iodepth: int = 4
    #: Simulated seconds of job body; 0 only for a pure prep job.
    runtime_s: float = 10.0
    name: str = "job"
    #: Read share of a mixed (rw / randrw) workload, percent.
    rwmixread: int = 50
    #: Barrier: the SLC cache drains (``Ssd.idle_flush``) before the job.
    stonewall: bool = False
    #: NVMe format before the job body.
    pre_format: bool = False
    #: Sequential preconditioning passes over the LBA space, and their
    #: request size, before the job body.
    precondition_passes: float = 0.0
    precondition_bs: str = "128k"
    #: ``ss=``: stop the body early once attained (``runtime_s`` caps it).
    steady_state: SteadyState | None = None

    def __post_init__(self) -> None:
        problem = None
        if self.rw not in PATTERNS:
            problem = f"rw must be one of {PATTERNS}, got {self.rw!r}"
        elif self.iodepth < 1:
            problem = "iodepth must be >= 1"
        elif not math.isfinite(self.runtime_s) or self.runtime_s < 0:
            problem = "runtime must be >= 0"
        elif not 0 <= self.rwmixread <= 100:
            problem = "rwmixread must be 0..100"
        elif not math.isfinite(self.precondition_passes) or self.precondition_passes < 0:
            problem = "precondition must be >= 0"
        elif self.runtime_s == 0 and not (self.pre_format or self.precondition_passes):
            problem = "runtime=0 needs pre_format or precondition"
        if problem:
            raise ConfigurationError(f"job [{self.name}]: {problem}")
        # Validate eagerly.
        parse_size(self.bs)
        parse_size(self.precondition_bs)

    @property
    def block_bytes(self) -> int:
        return parse_size(self.bs)

    @property
    def is_write(self) -> bool:
        return self.rw in ("write", "randwrite")

    @property
    def is_mixed(self) -> bool:
        return self.rw in ("rw", "randrw")

    @property
    def is_random(self) -> bool:
        return self.rw.startswith("rand")

    @property
    def read_fraction(self) -> float:
        """Fraction of the workload that is reads."""
        if self.is_mixed:
            return self.rwmixread / 100.0
        return 0.0 if self.is_write else 1.0
