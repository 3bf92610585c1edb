"""Gate the serving layer's fan-out numbers against a committed baseline.

Usage::

    python benchmarks/check_streaming_regression.py \
        --baseline BENCH_streaming.json --current /tmp/bench_now.json

Compares the ``server.scaling`` section of a freshly generated report
(``--current``) against the numbers committed at the repo root
(``--baseline``).  The gate fails when:

* the 64-subscriber ``drop-oldest`` per-client delivery rate regresses
  by more than ``--max-regression`` percent (the CI boxes are noisy, so
  the anchor is the smallest, most repeatable point on the curve);
* any ``block``-policy point stops being lossless;
* any point stops being encode-once (the broadcast ring must encode each
  frame exactly once regardless of subscriber count);
* the 1024-subscriber ``drop-oldest`` point (when present) falls below
  20 kHz aggregate delivery — the paper-level floor for a fan-out that
  is still "real time" for at least one subscriber's worth of stream;
* the producer-ring end-to-end ``read_block`` rate (the hot-ring
  consumer path in the ``producer`` section) or the sustained
  single-core rate (inline production, device simulation included)
  regresses by more than ``--max-regression`` percent against the
  committed baseline;
* the telemetry store (``store`` section, when present) breaks one of
  its structural guarantees — a tiered query returning more than its
  ``max_points`` budget, or falling under ``--min-tiered-speedup``
  times the full-scan latency — or its ingest rate regresses by more
  than ``--max-regression`` percent against the committed baseline;
* the storage job-file runner (``storage`` section, when present) gets
  less energy-efficient: a policy's steady-write joules-per-IO rising
  more than ``--max-regression`` percent over the committed baseline
  fails (higher J/IO is the regression direction), as does fio-style
  steady-state detection no longer terminating the write stage.

Exit status 0 on pass, 1 on any failure, with one line per check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Aggregate delivery floor for the largest drop-oldest point.
AGGREGATE_FLOOR_SAMPLES_PER_S = 20_000


def _scaling_points(report: dict, policy: str) -> list[dict]:
    return report.get("server", {}).get("scaling", {}).get(policy, [])


def _point(points: list[dict], n_clients: int) -> dict | None:
    for point in points:
        if point.get("n_clients") == n_clients:
            return point
    return None


def check(
    baseline: dict,
    current: dict,
    max_regression: float,
    min_tiered_speedup: float = 2.0,
) -> list[str]:
    failures: list[str] = []

    base_64 = _point(_scaling_points(baseline, "drop_oldest"), 64)
    cur_64 = _point(_scaling_points(current, "drop_oldest"), 64)
    if cur_64 is None:
        failures.append("current report has no 64-subscriber drop-oldest point")
    elif base_64 is not None:
        base_rate = base_64["per_client_samples_per_s"]
        cur_rate = cur_64["per_client_samples_per_s"]
        floor = base_rate * (1.0 - max_regression / 100.0)
        line = (
            f"64-subscriber drop-oldest per-client rate: {cur_rate}/s "
            f"(baseline {base_rate}/s, floor {floor:.0f}/s)"
        )
        if cur_rate < floor:
            failures.append(f"REGRESSION {line}")
        else:
            print(f"ok: {line}")

    for point in _scaling_points(current, "block"):
        n = point.get("n_clients")
        if not point.get("lossless"):
            failures.append(
                f"block policy lost frames at {n} subscribers "
                f"(dropped={point.get('frames_dropped')}, gaps={point.get('seq_gaps')})"
            )
        else:
            print(f"ok: block policy lossless at {n} subscribers")

    for policy in ("drop_oldest", "block"):
        for point in _scaling_points(current, policy):
            n = point.get("n_clients")
            if not point.get("encode_once"):
                failures.append(
                    f"{policy} at {n} subscribers is not encode-once "
                    f"(encoded={point.get('frames_encoded')}, "
                    f"expected={point.get('frames_expected')})"
                )

    for key, label in (
        ("read_block_samples_per_s", "producer-ring read_block rate"),
        ("sustained_samples_per_s", "producer sustained rate"),
    ):
        base_rate = baseline.get("producer", {}).get(key)
        cur_rate = current.get("producer", {}).get(key)
        if cur_rate is not None and base_rate is not None:
            floor = base_rate * (1.0 - max_regression / 100.0)
            line = f"{label}: {cur_rate}/s (baseline {base_rate}/s, floor {floor:.0f}/s)"
            if cur_rate < floor:
                failures.append(f"REGRESSION {line}")
            else:
                print(f"ok: {line}")
        elif base_rate is not None:
            failures.append(f"current report has no producer.{key}")

    cur_store = current.get("store")
    base_store = baseline.get("store", {})
    if cur_store is not None:
        if not cur_store.get("max_points_respected"):
            failures.append(
                f"store tiered query returned {cur_store.get('tiered_query_rows')} "
                "rows, over its max_points budget"
            )
        else:
            print(
                f"ok: store tiered query bounded "
                f"({cur_store.get('tiered_query_rows')} rows)"
            )
        speedup = cur_store.get("tiered_speedup", 0.0)
        if speedup < min_tiered_speedup:
            failures.append(
                f"store tiered query speedup {speedup}x is below the "
                f"{min_tiered_speedup}x floor (tiered "
                f"{cur_store.get('tiered_query_ms')} ms vs full scan "
                f"{cur_store.get('full_scan_ms')} ms)"
            )
        else:
            print(f"ok: store tiered query speedup {speedup}x over a full scan")
        base_ingest = base_store.get("ingest_samples_per_s")
        cur_ingest = cur_store.get("ingest_samples_per_s")
        if base_ingest is not None and cur_ingest is not None:
            floor = base_ingest * (1.0 - max_regression / 100.0)
            line = (
                f"store ingest rate: {cur_ingest}/s "
                f"(baseline {base_ingest}/s, floor {floor:.0f}/s)"
            )
            if cur_ingest < floor:
                failures.append(f"REGRESSION {line}")
            else:
                print(f"ok: {line}")
    elif base_store:
        failures.append("current report has no store section")

    cur_storage = current.get("storage")
    base_storage = baseline.get("storage", {})
    if cur_storage is not None:
        for policy, cur_row in sorted(cur_storage.get("policies", {}).items()):
            if not cur_row.get("steady_state_attained"):
                failures.append(
                    f"storage [{policy}]: steady-state detection no longer "
                    "terminates the write stage"
                )
            else:
                print(
                    f"ok: storage [{policy}] steady state attained at "
                    f"{cur_row.get('steady_state_stopped_at_s')}s"
                )
            base_row = base_storage.get("policies", {}).get(policy, {})
            base_jpio = base_row.get("write_joules_per_io")
            cur_jpio = cur_row.get("write_joules_per_io")
            if base_jpio is not None and cur_jpio is not None:
                # Energy per IO regresses UP: the ceiling is the baseline
                # plus the allowance.
                ceiling = base_jpio * (1.0 + max_regression / 100.0)
                line = (
                    f"storage [{policy}] write energy: {cur_jpio:.3e} J/IO "
                    f"(baseline {base_jpio:.3e}, ceiling {ceiling:.3e})"
                )
                if cur_jpio > ceiling:
                    failures.append(f"REGRESSION {line}")
                else:
                    print(f"ok: {line}")
    elif base_storage:
        failures.append("current report has no storage section")

    cur_1024 = _point(_scaling_points(current, "drop_oldest"), 1024)
    if cur_1024 is not None:
        rate = cur_1024["aggregate_samples_per_s"]
        if rate < AGGREGATE_FLOOR_SAMPLES_PER_S:
            failures.append(
                f"1024-subscriber aggregate delivery {rate}/s is below "
                f"the {AGGREGATE_FLOOR_SAMPLES_PER_S}/s floor"
            )
        else:
            print(f"ok: 1024-subscriber aggregate delivery {rate}/s")

    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--current", required=True, type=Path)
    parser.add_argument(
        "--max-regression",
        type=float,
        default=20.0,
        metavar="PCT",
        help="allowed drop in the 64-subscriber per-client rate",
    )
    parser.add_argument(
        "--min-tiered-speedup",
        type=float,
        default=2.0,
        metavar="X",
        help="floor on the store's tiered-query speedup over a full scan",
    )
    args = parser.parse_args()

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    failures = check(
        baseline, current, args.max_regression, args.min_tiered_speedup
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
