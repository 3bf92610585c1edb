"""serve-mixed: psserve's delivered rate over a unix socket.

One ``PowerSensorServer`` (block policy, 400-sample chunks, unpaced)
serves two devices: ``live``, a one-module simulated bench relayed raw,
and ``tape``, a looping ``replay://`` of a capture recorded with the
dump writer during setup, which goes out on the float64 WINDOW path.
Two ``run_swarm`` subscribers, raw on ``live`` and ``window=20`` on
``tape``, run in one load-generator process (:mod:`serve_load`).  Each
operation is one whole session: start the server, serve a fixed span of
simulated time to both subscribers, close.  This is the only workload
that exercises the pump, the encode-once ring, the window fold and the
socket writer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench.workloads.common import TRACED, Context, Workload, gpu_schedule
from bench.workloads.serve_load import ADDRESS, SUBSCRIBERS
from repro.core.setup import SimulatedSetup
from repro.core.sources import create_source
from repro.dut.rails import build_rail
from repro.server import PowerSensorServer

SESSION_SECONDS = 30.0
CHUNK = 400
TAPE_SECONDS = 2.0
LOAD_TIMEOUT_S = 30.0


class ServeMixed(Workload):
    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.live = SimulatedSetup(["pcie_slot_12v"], seed=self.seed)
        self.live.connect(0, build_rail(f"load:{rng.uniform(1.0, 8.0):.3f}@12.0"))
        tape_path = os.path.join(self.workdir, "tape.dump")
        with SimulatedSetup(["pcie8pin"], seed=self.seed + 1) as recorder:
            gpu = gpu_schedule(self.seed, TAPE_SECONDS)
            recorder.connect(0, gpu.rails(gpu.render(t_end=TAPE_SECONDS))["ext_12v"])
            recorder.ps.dump(tape_path)
            recorder.ps.pump(int(TAPE_SECONDS * recorder.sample_rate))
            recorder.ps.dump(None)
        self.tape = create_source(f"replay://{tape_path}?loop=true&device=tape")
        # The socket path is relative to the work directory, which both
        # processes enter, so its length never depends on the checkout's.
        os.chdir(self.workdir)
        bench_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [bench_root, env.get("PYTHONPATH")]))
        self.load = subprocess.Popen(
            [sys.executable, "-m", "bench.workloads.serve_load"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        if self.load.stdout.readline().strip() != "ready":
            raise RuntimeError("serve-mixed load generator failed to start")
        self.session_samples = int(round(SESSION_SECONDS * self.live.sample_rate))
        #: (frames encoded, frames delivered) of each traced session.
        self.traced_sessions: list[tuple[int, int]] = []

    def step(self, ctx: Context) -> bool:
        server = PowerSensorServer(
            {"live": self.live.source, "tape": self.tape},
            ADDRESS,
            policy="block",
            chunk=CHUNK,
            time_scale=0.0,
            wait_clients=len(SUBSCRIBERS),
        )
        with ctx.op() as op:
            server.start()
            try:
                self.load.stdin.write("go\n")
                self.load.stdin.flush()
                stats = server.serve(SESSION_SECONDS)
                line = self.load.stdout.readline()
            finally:
                server.close()
        if not line:
            raise RuntimeError("serve-mixed load generator exited")
        clients = json.loads(line)
        encoded = sum(
            int(server.registry.value("server_frames_encoded_total", device=device))
            for device, _, _ in SUBSCRIBERS
        )
        delivered = check_session(ctx, stats, clients, self.session_samples, encoded)
        if ctx.phase == TRACED:
            self.traced_sessions.append((encoded, delivered))
        ctx.rate(
            sum(int((c["eos"] or {}).get("samples_sent", 0))
                for device in clients.values() for c in device),
            op.seconds,
        )
        ctx.latency(op.seconds)
        return True

    def layer_counters(self) -> dict[str, float]:
        sessions = self.traced_sessions
        encoded = sum(e for e, _ in sessions)
        delivered = sum(d for _, d in sessions)
        return {
            "server.frames_encoded": encoded / len(sessions) if sessions else 0.0,
            # One subscriber per ring: every encoded frame is owed once.
            "server.delivered_ratio": delivered / encoded if encoded else 0.0,
        }

    def close(self) -> None:
        self.load.stdin.close()
        try:
            self.load.wait(LOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.load.kill()
            self.load.wait()
        self.load.stdout.close()
        self.tape.close()
        self.live.close()


def check_session(ctx: Context, stats: dict, clients: dict, samples: int, encoded: int) -> int:
    """Oracles for one session; returns the frames subscribers received.

    ``clients`` maps each device to its subscribers' reports (the
    fields of :class:`repro.server.loadgen.ClientResult`).
    """
    frames_per_device = -(-samples // CHUNK)
    delivered = 0
    ctx.check(
        stats.get("devices") == {"live": samples, "tape": samples},
        f"server produced {stats.get('devices')}, expected {samples} per device",
    )
    ctx.check(
        encoded == frames_per_device * len(SUBSCRIBERS),
        f"{encoded} frames encoded, expected {frames_per_device * len(SUBSCRIBERS)}",
    )
    for device, _mode, _window in SUBSCRIBERS:
        reports = clients.get(device, [])
        ctx.check(
            len(reports) == 1
            and reports[0]["error"] is None
            and reports[0]["eos"] is not None,
            f"{device}: subscriber failed ({reports and reports[0]['error']})",
        )
        for report in reports:
            eos = report["eos"] or {}
            delivered += report["frames"]
            ctx.check(
                report["seq_gaps"] == 0 and eos.get("frames_dropped", 1) == 0,
                f"{device}: {report['seq_gaps']} sequence gaps, "
                f"{eos.get('frames_dropped')} frames dropped",
            )
            ctx.check(
                eos.get("samples_sent") == samples and report["frames"] == frames_per_device,
                f"{device}: received {report['frames']} frames / {eos.get('samples_sent')} "
                f"samples, expected {frames_per_device} / {samples}",
            )
    return delivered
