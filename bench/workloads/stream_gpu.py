"""stream-gpu: the paper's headline use case, a GPU's three PCIe feeds.

One bench carries ``pcie_slot_12v``, ``pcie8pin`` and ``pcie_slot_3v3``
modules wired to the ``slot_12v``, ``ext_12v`` and ``slot_3v3`` feeds of
a seeded RTX 4000 Ada kernel schedule.  The closed loop calls
``PowerSensor.pump(8192)`` back to back.  Device simulation does most of
the work here, so this is where a per-sample simulation gain shows.
"""

from __future__ import annotations

from bench.workloads.common import (
    Context,
    Workload,
    check_energy,
    gpu_schedule,
    true_energy,
)
from repro.core.setup import SimulatedSetup

MODULES = ["pcie_slot_12v", "pcie8pin", "pcie_slot_3v3"]
FEEDS = ["slot_12v", "ext_12v", "slot_3v3"]
BLOCK = 8192
#: Simulated seconds the rendered schedule covers; a run that reaches
#: the end stops early rather than measuring an idle tail.
SIM_SECONDS = 300.0


class StreamGpu(Workload):
    # Eight pumps, about 0.4 s on a 2-vCPU host.
    RATE_WINDOW = LATENCY_WINDOW = 8

    def setup(self) -> None:
        self.bench = SimulatedSetup(MODULES, seed=self.seed)
        gpu = gpu_schedule(self.seed, SIM_SECONDS)
        self.rails = gpu.rails(gpu.render(t_end=SIM_SECONDS))
        for slot, feed in enumerate(FEEDS):
            self.bench.connect(slot, self.rails[feed])
        self.cap = int(SIM_SECONDS * self.bench.sample_rate) // BLOCK
        self.pumps = 0

    def step(self, ctx: Context) -> bool:
        if self.pumps >= self.cap:
            return False
        with ctx.op() as op:
            block = self.bench.ps.pump(BLOCK)
        self.pumps += 1
        ctx.rate(BLOCK, op.seconds)
        ctx.latency(op.seconds)
        ctx.check(len(block) == BLOCK, f"pump returned {len(block)} of {BLOCK} samples")
        return True

    def finish(self, ctx: Context) -> None:
        ps = self.bench.ps
        expected = self.pumps * BLOCK
        ctx.check(
            ps.samples_seen == expected,
            f"stream delivered {ps.samples_seen} samples, expected {expected}",
        )
        ctx.check(ps.health.gaps_bridged == 0, f"{ps.health.gaps_bridged} gaps bridged")
        ctx.check(ps.health.stalls == 0, f"{ps.health.stalls} stalls")
        rails = [self.rails[feed] for feed in FEEDS]
        truth = true_energy(rails, expected / self.bench.sample_rate)
        check_energy(ctx, ps.total_energy(), truth)

    def close(self) -> None:
        self.bench.close()
