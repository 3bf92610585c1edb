"""The serve-mixed load generator: one process, one thread per subscriber.

Started once by the serve-mixed workload, inside its work directory.
It prints ``ready`` once imported; then for every ``go`` line on
standard input it runs one ``run_swarm``
subscriber per device against ``unix:serve.sock`` -- raw on ``live``,
``window=20`` on ``tape`` -- and prints one JSON line describing what
each subscriber received.  Running the subscribers in their own process
keeps them off the server's interpreter lock, as real clients are.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import asdict

from repro.server.loadgen import run_swarm

ADDRESS = "unix:serve.sock"
SWARM_TIMEOUT = 60.0
#: (device, mode, window) of the two subscribers.
SUBSCRIBERS = (("live", "raw", 1), ("tape", "window", 20))


def session() -> dict:
    results: dict[str, list[dict]] = {}

    def subscribe(device: str, mode: str, window: int) -> None:
        swarm = run_swarm(ADDRESS, 1, device=device, mode=mode, window=window,
                          timeout=SWARM_TIMEOUT)
        results[device] = [asdict(client) for client in swarm.clients]

    threads = [threading.Thread(target=subscribe, args=sub) for sub in SUBSCRIBERS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def main() -> int:
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(json.dumps(session()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
