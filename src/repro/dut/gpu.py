"""Behavioural GPU power models (the paper's Section V-A case studies).

The models reproduce the *trace features* the paper's Fig. 7 annotates,
per vendor:

* NVIDIA (RTX 4000 Ada): on kernel start, power jumps to an initial level
  (~95 W) and then ramps to the steady level (~120 W) as the clock
  governor raises the frequency; thread-block waves along the grid's
  y-dimension produce short power dips between phases; after the workload
  the GPU takes over a second to return to idle.
* AMD (Radeon Pro W7700): an initial spike to the power limit, a sharp
  drop, a ramp-up with brief overshoot, stabilisation at the limit, and a
  fast return to idle.

Power scales with clock as ``f * V(f)^2`` (DVFS), which is what creates
the performance/efficiency trade-off the auto-tuning experiments explore.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MeasurementError
from repro.common.rng import RngStream
from repro.dut.base import PowerTrace, SplitRail


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU model."""

    name: str
    vendor: str  # "nvidia" or "amd"
    n_sm: int  # streaming multiprocessors / compute units
    idle_watts: float
    power_limit_watts: float
    base_clock_mhz: float
    boost_clock_mhz: float
    #: FP16 tensor/matrix FLOPs per SM per cycle (dense).
    tensor_flops_per_sm_cycle: float
    #: Governor ramp time constant (s); NVIDIA ramps slowly.
    ramp_tau_s: float
    #: Power level right after kernel start, before the ramp completes.
    launch_watts: float
    #: Decay time constant back to idle after the workload (s).
    idle_return_tau_s: float
    #: AMD-style spike-to-limit / sharp-drop / overshoot behaviour.
    overshoot: bool = False
    #: Fraction of board power drawn from each feed.
    slot_3v3_share: float = 0.04
    slot_12v_share: float = 0.30

    @property
    def ext_12v_share(self) -> float:
        return 1.0 - self.slot_3v3_share - self.slot_12v_share

    @property
    def peak_tensor_tflops(self) -> float:
        """Dense FP16 tensor peak at boost clock, TFLOP/s."""
        return (
            self.n_sm * self.tensor_flops_per_sm_cycle * self.boost_clock_mhz * 1e6
        ) / 1e12

    def voltage_at(self, clock_mhz: float) -> float:
        """DVFS operating voltage (V) for a core clock (linear V-f curve)."""
        span = max(self.boost_clock_mhz - self.base_clock_mhz, 1.0)
        frac = (clock_mhz - self.base_clock_mhz) / span
        return 0.70 + 0.35 * np.clip(frac, -0.5, 1.2)

    def dynamic_power(self, clock_mhz: float, utilization: float) -> float:
        """Board dynamic power (W) above idle at a clock and utilisation.

        Normalised so a fully utilised GPU at boost clock sits a few
        percent above the power limit (and therefore throttles), matching
        the behaviour of both evaluated boards.
        """
        v = self.voltage_at(clock_mhz)
        v_max = self.voltage_at(self.boost_clock_mhz)
        norm = self.boost_clock_mhz * v_max**2
        scale = (clock_mhz * v**2) / norm
        full_dynamic = 1.08 * (self.power_limit_watts - self.idle_watts)
        return full_dynamic * scale * (0.25 + 0.75 * float(utilization))

    def board_power(self, clock_mhz: float, utilization: float) -> float:
        """Total board power, clamped at the power limit."""
        return min(
            self.idle_watts + self.dynamic_power(clock_mhz, utilization),
            self.power_limit_watts,
        )


GPU_CATALOG: dict[str, GpuSpec] = {
    "rtx4000ada": GpuSpec(
        name="NVIDIA RTX 4000 Ada",
        vendor="nvidia",
        n_sm=48,
        idle_watts=14.0,
        power_limit_watts=130.0,
        base_clock_mhz=1500.0,
        boost_clock_mhz=2175.0,
        tensor_flops_per_sm_cycle=1475.0,  # ~154 FP16 TFLOP/s dense peak
        ramp_tau_s=0.35,
        launch_watts=95.0,
        idle_return_tau_s=1.0,  # the paper notes >1 s back to idle
        overshoot=False,
    ),
    "w7700": GpuSpec(
        name="AMD Radeon Pro W7700",
        vendor="amd",
        n_sm=48,
        idle_watts=18.0,
        power_limit_watts=150.0,
        base_clock_mhz=1900.0,
        boost_clock_mhz=2600.0,
        tensor_flops_per_sm_cycle=1024.0,
        ramp_tau_s=0.12,
        launch_watts=150.0,
        idle_return_tau_s=0.12,
        overshoot=True,
    ),
    "jetson_orin_gpu": GpuSpec(
        name="NVIDIA Jetson AGX Orin (GPU)",
        vendor="nvidia",
        n_sm=16,
        idle_watts=6.0,
        power_limit_watts=44.0,
        base_clock_mhz=612.0,
        boost_clock_mhz=1300.0,
        tensor_flops_per_sm_cycle=2048.0,  # ~42 FP16 TFLOP/s dense peak
        ramp_tau_s=0.20,
        launch_watts=30.0,
        idle_return_tau_s=0.30,
        overshoot=False,
    ),
}


def gpu_spec(key: str) -> GpuSpec:
    try:
        return GPU_CATALOG[key]
    except KeyError:
        known = ", ".join(sorted(GPU_CATALOG))
        raise MeasurementError(f"unknown GPU {key!r}; known GPUs: {known}")


@dataclass
class KernelLaunch:
    """One kernel execution scheduled on the GPU.

    Attributes:
        start: launch time (s).
        duration: execution time (s).
        utilization: 0..1 compute utilisation while running.
        clock_mhz: locked core clock; None lets the governor ramp to boost.
        n_waves: thread-block waves along the grid's y-dimension; wave
            boundaries produce the short power dips Fig. 7a highlights.
        dip_depth: fractional power drop at each wave boundary.
        dip_duration: duration of each dip (s).
    """

    start: float
    duration: float
    utilization: float = 1.0
    clock_mhz: float | None = None
    n_waves: int = 1
    dip_depth: float = 0.35
    dip_duration: float = 0.0015


class Gpu:
    """A GPU whose scheduled workload renders into a ground-truth trace."""

    def __init__(self, spec: GpuSpec | str, rng: RngStream | None = None) -> None:
        self.spec = spec if isinstance(spec, GpuSpec) else gpu_spec(spec)
        self.rng = rng or RngStream(0, f"gpu/{self.spec.name}")
        self.launches: list[KernelLaunch] = []

    def launch(self, launch: KernelLaunch) -> None:
        if launch.duration <= 0:
            raise MeasurementError("kernel duration must be positive")
        self.launches.append(launch)

    # ------------------------------------------------------------------ #
    # Trace rendering                                                    #
    # ------------------------------------------------------------------ #

    def render(self, t_end: float, dt: float = 2e-4) -> PowerTrace:
        """Render the scheduled workload into a board power trace.

        The trace covers [0, t_end] at resolution ``dt``; rails derived
        from it are sample-and-hold, which is faithful at dt well below
        the 50 us sensor sample interval only for the experiments that
        need it (pass a smaller dt there).
        """
        times = np.arange(0.0, t_end + dt, dt)
        power = np.full(times.size, self.spec.idle_watts)
        # Each launch owns the points from its start to the next launch's
        # start (a later start, or a tie listed later, takes over): active
        # power until it stops, then its idle-return tail.
        launches = sorted(self.launches, key=lambda k: k.start)
        firsts = np.searchsorted(times, [k.start for k in launches])
        for launch, lo, hi in zip(launches, firsts, [*firsts[1:], times.size]):
            stop = launch.start + launch.duration
            mid = min(int(np.searchsorted(times, stop)), hi)
            power[lo:mid] = self._active_power(times[lo:mid], launch)
            steady = self._steady_power(launch)
            power[mid:hi] = self.spec.idle_watts + (
                0.35 * (steady - self.spec.idle_watts)
            ) * np.exp(-(times[mid:hi] - stop) / self.spec.idle_return_tau_s)
        # Small fluctuation of real board power (VRM ripple, fan, ...).
        power = power + self.rng.normal(0.0, 0.15, size=power.shape)
        power = np.clip(power, 0.8 * self.spec.idle_watts, None)
        volts = np.full(times.size, 12.0)
        amps = power / volts
        return PowerTrace(times=times, volts=volts, amps=amps)

    def _steady_power(self, launch: KernelLaunch) -> float:
        clock = launch.clock_mhz or self.spec.boost_clock_mhz
        return self.spec.board_power(clock, launch.utilization)

    def _active_power(self, times: np.ndarray, launch: KernelLaunch) -> np.ndarray:
        rel = times - launch.start
        steady = self._steady_power(launch)
        if self.spec.overshoot:
            power = self._amd_envelope(rel, steady)
        else:
            power = self._nvidia_envelope(rel, steady)
        if launch.n_waves > 1:
            wave_period = launch.duration / launch.n_waves
            phase = np.mod(rel, wave_period)
            in_dip = phase < launch.dip_duration
            in_dip &= rel > wave_period  # no dip before the first boundary
            power = np.where(in_dip, power * (1.0 - launch.dip_depth), power)
        return power

    def _nvidia_envelope(self, rel: np.ndarray, steady: float) -> np.ndarray:
        """Jump to launch power, then governor ramp toward steady."""
        launch_level = min(self.spec.launch_watts, steady)
        ramp = 1.0 - np.exp(-rel / self.spec.ramp_tau_s)
        return launch_level + (steady - launch_level) * ramp

    def _amd_envelope(self, rel: np.ndarray, steady: float) -> np.ndarray:
        """Spike to the limit, sharp drop, overshooting ramp, stabilise."""
        spike_t = 0.05
        drop_level = 0.62 * steady
        ramp = 1.0 - np.exp(-(rel - spike_t) / self.spec.ramp_tau_s)
        over = 0.06 * steady * np.exp(-(rel - spike_t) / (2.5 * self.spec.ramp_tau_s))
        ramped = drop_level + (steady - drop_level) * ramp + over * np.sin(
            np.clip((rel - spike_t) / (2.0 * self.spec.ramp_tau_s), 0.0, np.pi)
        )
        power = np.where(rel < spike_t, self.spec.power_limit_watts, ramped)
        return np.minimum(power, self.spec.power_limit_watts * 1.02)

    # ------------------------------------------------------------------ #
    # Rails                                                              #
    # ------------------------------------------------------------------ #

    def rails(self, trace: PowerTrace) -> dict[str, SplitRail]:
        """Split a board trace into the three physical feeds of a PCIe card."""
        spec = self.spec
        return {
            "slot_3v3": SplitRail(trace, spec.slot_3v3_share, 3.3, 0.002),
            "slot_12v": SplitRail(trace, spec.slot_12v_share, 12.0, 0.004),
            "ext_12v": SplitRail(trace, spec.ext_12v_share, 12.0, 0.004),
        }

    def reset(self) -> None:
        self.launches.clear()
