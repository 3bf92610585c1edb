"""Streaming robustness experiment: fleet x fault matrix x backpressure.

The paper's evaluation measures a clean bench; the production stack also
has to survive a dirty one.  This experiment drives a fleet of simulated
devices through the byte-accurate protocol path with a deterministic
fault matrix on the link (:mod:`repro.transport.faults`), fans the
decoded stream through a :class:`~repro.server.ring.BroadcastRing` with
a deliberately slow subscriber, and scores what arrives:

* stream health (packets dropped to resync, retries, stalls) from the
  :class:`~repro.core.health.StreamHealth` counters;
* fan-out loss accounting per cursor policy (``block`` flow-controls
  and stays lossless, ``drop-oldest`` evicts, ``downsample`` thins);
* the headline **delivered ratio** — subscriber-received samples over
  producer-decoded samples — the metric the campaign ablation groups
  rank defences by.

The first row is the fleet aggregate (the scoreboard row the ablation
report reads); one row per device follows.
"""

from __future__ import annotations

from repro.campaign import registry
from repro.campaign.registry import Param
from repro.common.errors import StreamStalledError
from repro.core.setup import SimulatedSetup
from repro.experiments.common import ExperimentResult
from repro.server.ring import BroadcastRing, RingCursor

#: Samples pumped per encoded frame (one ring append per pump).
FRAME_SAMPLES = 64


def run(
    fleet: int,
    faults: str,
    backpressure: str,
    samples_per_device: int,
    ring_capacity: int,
    drain_every: int,
    seed: int,
    registry=None,
) -> ExperimentResult:
    """Stream ``samples_per_device`` per device through faults + fan-out.

    The subscriber only drains its cursor every ``drain_every`` appends
    (and only half the backlog at a time), so the ring genuinely
    pressures the policy under test.  ``faults="none"`` disables link
    fault injection; any other value is a
    :func:`repro.transport.faults.parse_fault_spec` spec string.
    """
    result = ExperimentResult(name="Streaming robustness (fleet / faults / fan-out)")
    fault_spec = None if faults.strip().lower() in ("", "none") else faults

    totals = {
        "decoded": 0,
        "delivered": 0,
        "packets_dropped": 0,
        "retries": 0,
        "stalls": 0,
        "lost_frames": 0,
        "skipped_frames": 0,
        "flow_stalls": 0,
        "gave_up": 0,
    }
    device_rows = []
    for device in range(fleet):
        setup = SimulatedSetup(
            ["pcie_slot_12v"],
            seed=seed + device,
            direct=False,
            calibrate=False,
            faults=fault_spec,
            fault_seed=seed + 1000 + device,
            registry=registry,
            device=f"dev{device}",
        )
        try:
            ring = BroadcastRing(ring_capacity)
            cursor = RingCursor(ring, policy=backpressure)
            delivered = 0
            flow_stalls = 0
            appends = 0
            gave_up = False
            n_frames = max(samples_per_device // FRAME_SAMPLES, 1)
            for _ in range(n_frames):
                try:
                    block = setup.ps.pump(FRAME_SAMPLES)
                except StreamStalledError:
                    # A dead/stalled device is a datapoint, not a crash:
                    # it scores as lost throughput on the scoreboard.
                    gave_up = True
                    break
                n = len(block)
                if n == 0:
                    continue
                if backpressure == "block" and cursor.overrun():
                    # The lossless policy flow-controls the producer:
                    # drain fully before appending (and count the stall).
                    flow_stalls += 1
                    delivered += sum(s for _, s in cursor.take())
                ring.append(b"\0" * (2 * n), n)
                appends += 1
                if appends % drain_every == 0:
                    # A deliberately slow subscriber: one frame per visit,
                    # so sustained pressure genuinely exercises the policy.
                    delivered += sum(s for _, s in cursor.take(1))
            # End of stream: drain whatever the ring still retains.
            delivered += sum(s for _, s in cursor.take())

            health = setup.ps.source.health
            decoded = ring.samples_appended
            ratio = delivered / decoded if decoded else 0.0
            device_rows.append(
                {
                    "device": f"dev{device}",
                    "decoded": decoded,
                    "delivered": delivered,
                    "delivered ratio": ratio,
                    "packets dropped": health.packets_dropped,
                    "retries": health.retries,
                    "stalls": health.stalls,
                    "frames lost": cursor.lost_frames,
                    "frames skipped": cursor.skipped_frames,
                    "flow stalls": flow_stalls,
                    "gave up": gave_up,
                }
            )
            totals["decoded"] += decoded
            totals["delivered"] += delivered
            totals["packets_dropped"] += health.packets_dropped
            totals["retries"] += health.retries
            totals["stalls"] += health.stalls
            totals["lost_frames"] += cursor.lost_frames
            totals["skipped_frames"] += cursor.skipped_frames
            totals["flow_stalls"] += flow_stalls
            totals["gave_up"] += int(gave_up)
        finally:
            setup.close()

    ratio = totals["delivered"] / totals["decoded"] if totals["decoded"] else 0.0
    result.rows.append(
        {
            "device": "fleet",
            "decoded": totals["decoded"],
            "delivered": totals["delivered"],
            "delivered ratio": ratio,
            "packets dropped": totals["packets_dropped"],
            "retries": totals["retries"],
            "stalls": totals["stalls"],
            "frames lost": totals["lost_frames"],
            "frames skipped": totals["skipped_frames"],
            "flow stalls": totals["flow_stalls"],
            "gave up": totals["gave_up"],
        }
    )
    result.rows.extend(device_rows)
    result.notes.append(
        f"fleet={fleet} faults={faults} backpressure={backpressure} "
        f"ring={ring_capacity} drain_every={drain_every}"
    )
    return result


registry.register(
    "streaming",
    section="Streaming robustness",
    runner=run,
    params=(
        Param("fleet", "int", default=1),
        Param("faults", "str", default="none"),
        Param(
            "backpressure",
            "str",
            default="block",
            choices=("block", "drop-oldest", "downsample"),
        ),
        Param("samples_per_device", "int", default=4096, full=32 * 1024),
        Param("ring_capacity", "int", default=16),
        Param("drain_every", "int", default=3),
        Param("seed", "int", default=20),
    ),
    accepts_registry=True,
    help="fleet x link-fault matrix x fan-out backpressure policy",
)


def main() -> None:
    registry.print_paper_scale("streaming")


if __name__ == "__main__":
    main()
