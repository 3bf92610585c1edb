"""fleet-poll: realtime polling of a rack, psmonitor/PMT style.

Sixteen ``sim://pcie_slot_12v`` benches, each on an electronic load at a
seeded current, polled with ``Fleet.read_all(0.002)``: 40 samples per
device per call.  With blocks this small, per-call work in sources,
fold and fleet is a third of the time and the load rail is cheap, so a
gain in rail simulation should move this workload much less than
stream-gpu.
"""

from __future__ import annotations

import numpy as np

from bench.workloads.common import Context, Workload, check_energy, true_energy
from repro.core.fleet import Fleet

DEVICES = 16
POLL_SECONDS = 0.002


def member_specs(seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 2])
    amps = rng.uniform(1.0, 8.0, size=DEVICES)
    return [
        f"sim://pcie_slot_12v?device=dev{i:02d}&seed={seed * DEVICES + i}"
        f"&dut=load:{a:.3f}@12.0"
        for i, a in enumerate(amps)
    ]


class FleetPoll(Workload):
    # A hundred polls, about 0.5 s on a 2-vCPU host.
    RATE_WINDOW = LATENCY_WINDOW = 100

    def setup(self) -> None:
        self.fleet = Fleet.from_specs(member_specs(self.seed))
        rate = max(member.source.sample_rate for member in self.fleet)
        self.per_poll = int(round(POLL_SECONDS * rate))
        self.polls = 0

    def step(self, ctx: Context) -> bool:
        with ctx.op() as op:
            blocks = self.fleet.read_all(POLL_SECONDS)
        self.polls += 1
        ctx.rate(blocks.total_samples, op.seconds)
        ctx.latency(op.seconds)
        short = [name for name, block in blocks.items() if len(block) != self.per_poll]
        ctx.check(not short, f"poll {self.polls}: short reads from {short}")
        return True

    def finish(self, ctx: Context) -> None:
        expected = self.polls * self.per_poll
        for member in self.fleet:
            ps = member.ps
            ctx.check(
                ps.samples_seen == expected,
                f"{member.name}: {ps.samples_seen} samples, expected {expected}",
            )
            ctx.check(
                ps.health.gaps_bridged == 0,
                f"{member.name}: {ps.health.gaps_bridged} gaps bridged",
            )
            rail = member.bench.baseboard.slots[0].rail
            check_energy(
                ctx,
                ps.total_energy(),
                true_energy([rail], expected / ps.sample_rate),
                label=f"{member.name}: ",
            )

    def close(self) -> None:
        self.fleet.close()
