"""The performance numbers the docs quote match ``BENCH_streaming.json``.

Each row pairs a doc excerpt with the report key it quotes.  The last
number in the excerpt (with an optional ``k``/``M`` scale) must equal the
JSON value rounded to the quoted precision; a key ``"a / b"`` quotes the
ratio of two values.  A doc that drifts from the committed report, or a
report regenerated without its docs, fails here.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT = json.loads((ROOT / "BENCH_streaming.json").read_text())

SCALES = {"": 1.0, "k": 1e3, "M": 1e6}
NUMBER = re.compile(r"(\d+(?:\.\d+)?)\s?([kM]?)")

QUOTES = [
    # docs/performance.md: measured numbers
    ("performance.md", "| wire decode (samples/s) | 55.4 k", "decode.scalar_samples_per_s"),
    ("performance.md", "55.4 k (scalar) | 4.08 M", "decode.vectorized_samples_per_s"),
    ("performance.md", "4.08 M | **73.7", "decode.decode_speedup"),
    ("performance.md", "ring (samples/s) | 362 k", "decode.read_block_samples_per_s"),
    ("performance.md", "362 k (interleaved) | 7.78 M", "producer.read_block_samples_per_s"),
    (
        "performance.md",
        "7.78 M | **21",
        "producer.read_block_samples_per_s / decode.read_block_samples_per_s",
    ),
    (
        "performance.md",
        "| dump write (samples/s) | 170 k",
        "recorded_baselines.dump_write_samples_per_s",
    ),
    ("performance.md", "170 k | 2.37 M", "dump.write_samples_per_s"),
    ("performance.md", "2.37 M | **14.0", "dump.write_speedup"),
    (
        "performance.md",
        "| dump read (samples/s) | 349 k",
        "recorded_baselines.dump_read_samples_per_s",
    ),
    ("performance.md", "349 k | 1.94 M", "dump.read_samples_per_s"),
    ("performance.md", "1.94 M | **5.6", "dump.read_speedup"),
    (
        "performance.md",
        "| dump round-trip (samples/s) | 114 k",
        "recorded_baselines.dump_roundtrip_samples_per_s",
    ),
    ("performance.md", "114 k | 1.07 M", "dump.roundtrip_samples_per_s"),
    ("performance.md", "1.07 M | **9.3", "dump.roundtrip_speedup"),
    ("performance.md", "70.5 k baseline", "recorded_baselines.decode_scalar_samples_per_s"),
    ("performance.md", "of a 101 M", "dump.file_bytes"),
    ("performance.md", "file at 1.07 M", "dump.roundtrip_samples_per_s"),
    # docs/performance.md: producer ring
    ("performance.md", "loop — 362 k", "decode.read_block_samples_per_s"),
    ("performance.md", "decoder that does 4.08 M", "decode.vectorized_samples_per_s"),
    ("performance.md", "| **7.78 M", "producer.read_block_samples_per_s"),
    (
        "performance.md",
        "| `sustained_samples_per_s` | 362 k",
        "producer.sustained_samples_per_s",
    ),
    ("performance.md", "(decode section) | 362 k", "decode.read_block_samples_per_s"),
    ("performance.md", "The 7.78 M", "producer.read_block_samples_per_s"),
    (
        "performance.md",
        "is now 21",
        "producer.read_block_samples_per_s / decode.read_block_samples_per_s",
    ),
    # docs/performance.md: serving fan-out
    ("performance.md", "costs 0.9", "server.remote_read.overhead_ratio"),
    (
        "performance.md",
        "| 64 | drop-oldest | 100 (once) | 5.86 M",
        "server.scaling.drop_oldest.0.aggregate_samples_per_s",
    ),
    (
        "performance.md",
        "| 256 | drop-oldest | 50 (once) | 8.53 M",
        "server.scaling.drop_oldest.1.aggregate_samples_per_s",
    ),
    (
        "performance.md",
        "| 1024 | drop-oldest | 25 (once) | 8.13 M",
        "server.scaling.drop_oldest.2.aggregate_samples_per_s",
    ),
    (
        "performance.md",
        "| 64 | block | 100 (once) | 6.40 M",
        "server.scaling.block.0.aggregate_samples_per_s",
    ),
    (
        "performance.md",
        "| 256 | block | 50 (once) | 9.24 M",
        "server.scaling.block.1.aggregate_samples_per_s",
    ),
    # docs/performance.md: observability overhead
    ("performance.md", "| disabled | 3.85 M", "observability.disabled_samples_per_s"),
    ("performance.md", "| enabled (default) | 3.72 M", "observability.enabled_samples_per_s"),
    ("performance.md", "| **overhead** | **3.5", "observability.overhead_pct"),
    # docs/observability.md
    ("observability.md", "everything on is 3.5", "observability.overhead_pct"),
    # docs/serving.md: measured performance
    ("serving.md", "`drop-oldest` (28.3 k", "server.fanout.0.per_client_samples_per_s"),
    ("serving.md", "400`, 40.7 k", "server.fanout.1.per_client_samples_per_s"),
    ("serving.md", "costs 0.9", "server.remote_read.overhead_ratio"),
    ("serving.md", "20 kHz (104 k", "fleet.mixed_fleet.per_device_samples_per_s"),
    ("serving.md", "8.13 M delivered", "server.scaling.drop_oldest.2.aggregate_samples_per_s"),
    ("serving.md", "(7.9 k", "server.scaling.drop_oldest.2.per_client_samples_per_s"),
]


def _value(path: str) -> float:
    if " / " in path:
        numerator, denominator = path.split(" / ")
        return _value(numerator) / _value(denominator)
    node = REPORT
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return float(node)


def test_docs_quote_the_committed_report():
    mismatches = []
    for doc, quote, path in QUOTES:
        text = (ROOT / "docs" / doc).read_text()
        if quote not in text:
            mismatches.append(f"docs/{doc} no longer quotes {quote!r}")
            continue
        digits, scale = NUMBER.findall(quote)[-1]
        places = len(digits.partition(".")[2])
        value = _value(path)
        if float(digits) != round(value / SCALES[scale], places):
            mismatches.append(
                f"docs/{doc} quotes {digits}{scale} for {path}, the report has {value:g}"
            )
    assert not mismatches, "\n".join(mismatches)
