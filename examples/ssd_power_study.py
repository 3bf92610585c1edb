"""SSD power study: request-size sweep and the GC bandwidth/power split.

Recreates the paper's Fig. 12 methodology as a script: fio-style jobs
drive a simulated NVMe SSD (page-mapping FTL with SLC cache and garbage
collection) while PowerSensor3 measures the 3.3 V feed through the
modified riser.

Run:  python examples/ssd_power_study.py
"""

from repro.common.units import GIB
from repro.core.setup import SimulatedSetup
from repro.dut.ssd import Ssd, SsdSpec
from repro.storage import FioJob, IoEngine
from repro.storage.jobfile import measure_trace


def main() -> None:
    ssd = Ssd(SsdSpec(logical_bytes=2 * GIB))
    engine = IoEngine(ssd)
    setup = SimulatedSetup(["pcie_slot_3v3"], direct=True)

    print("random reads (10 s per point in the paper; 2 s here):")
    print(f"{'bs':>6} {'bandwidth':>12} {'PS3 power':>10}")
    for bs in ("4k", "16k", "64k", "256k", "1m", "4m"):
        job = FioJob(rw="randread", bs=bs, iodepth=4, runtime_s=2.0)
        outcome = engine.run(job)
        power = measure_trace(setup, outcome.power_trace(volts=3.3), 2.0)
        print(f"{bs:>6} {outcome.mean_bandwidth / 1e6:9.0f} MB/s {power:8.2f} W")

    print("\nsustained random 4 KiB writes after preconditioning:")
    engine.run(FioJob(rw="write", runtime_s=0, pre_format=True, precondition_passes=1.0))
    outcome = engine.run(FioJob(rw="randwrite", bs="4k", runtime_s=30.0, stonewall=True))

    bw_1s, pw_1s = outcome.per_second()
    n_seconds = bw_1s.size
    for second in range(0, n_seconds, 5):
        bar = "#" * int(bw_1s[second] / 1e6 / 20)
        print(f"  t={second:3d}s  {bw_1s[second] / 1e6:7.0f} MB/s "
              f"{pw_1s[second]:5.2f} W  {bar}")

    steady = slice(n_seconds // 3, None)
    print(
        f"\nsteady state: bandwidth {bw_1s[steady].mean() / 1e6:.0f} MB/s "
        f"(CV {bw_1s[steady].std() / bw_1s[steady].mean():.0%}) while power "
        f"{pw_1s[steady].mean():.2f} W (CV "
        f"{pw_1s[steady].std() / pw_1s[steady].mean():.1%}) — bandwidth is "
        f"not an indicator of power (paper, Section V-C)"
    )
    print(f"write amplification: {ssd.counters.write_amplification:.2f}")
    setup.close()


if __name__ == "__main__":
    main()
