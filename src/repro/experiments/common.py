"""Experiment harness shared pieces.

Every experiment module exposes ``run(...) -> ExperimentResult``, called
with the parameters its registry schema resolves at bench or paper
scale, plus a ``main()`` that prints the paper-style table at paper scale.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class ExperimentResult:
    """Rows (the paper's table), series (the paper's figure), and notes."""

    name: str
    rows: list[dict] = field(default_factory=list)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def save(self, directory: str | Path) -> Path:
        """Persist rows/notes as JSON and series as .npz (artifact parity).

        The paper releases its evaluation datasets; this writes the same
        shape of artifact for a regenerated experiment: ``result.json``
        with the table and notes, ``series.npz`` with the figure data.
        Returns the directory written.

        Both files are published atomically (written to a ``.tmp`` name,
        fsynced, then renamed — the store's ``.seg.tmp`` protocol), with
        ``result.json`` renamed last: a run killed mid-save leaves only
        ``.tmp`` debris, never a half-written artifact that
        :meth:`load` would parse as a valid result.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": self.name,
            "rows": [
                {k: _jsonable(v) for k, v in row.items()} for row in self.rows
            ],
            "notes": list(self.notes),
            "series_keys": sorted(self.series),
        }
        series_path = directory / "series.npz"
        if self.series:
            # np.savez appends ".npz" to bare paths; hand it an open
            # handle so the temp name is exactly what gets renamed.
            _publish(series_path, lambda f: np.savez_compressed(f, **self.series))
        elif series_path.exists():
            series_path.unlink()  # a re-run must not leave stale series
        _publish(
            directory / "result.json",
            lambda f: f.write(json.dumps(payload, indent=2).encode()),
        )
        return directory

    @classmethod
    def load(cls, directory: str | Path) -> "ExperimentResult":
        """Load an artifact written by :meth:`save`."""
        directory = Path(directory)
        payload = json.loads((directory / "result.json").read_text())
        series: dict[str, np.ndarray] = {}
        series_path = directory / "series.npz"
        if series_path.exists():
            with np.load(series_path) as archive:
                series = {key: archive[key] for key in archive.files}
        return cls(
            name=payload["name"],
            rows=payload["rows"],
            series=series,
            notes=payload["notes"],
        )


    def table(self) -> str:
        """Format the rows as an aligned text table."""
        if not self.rows:
            return f"[{self.name}] (no rows)"
        columns = list(self.rows[0])
        widths = {c: len(c) for c in columns}
        rendered = []
        for row in self.rows:
            cells = {c: _fmt(row.get(c, "")) for c in columns}
            for c in columns:
                widths[c] = max(widths[c], len(cells[c]))
            rendered.append(cells)
        header = "  ".join(c.rjust(widths[c]) for c in columns)
        lines = [f"[{self.name}]", header, "  ".join("-" * widths[c] for c in columns)]
        for cells in rendered:
            lines.append("  ".join(cells[c].rjust(widths[c]) for c in columns))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def print(self) -> None:
        print(self.table())


def _publish(path: Path, write) -> None:
    """Write ``path`` atomically: tmp file, fsync, rename."""
    tmp = path.parent / (path.name + ".tmp")
    with open(tmp, "wb") as handle:
        write(handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def relative_delta(measured: float, paper: float) -> float:
    """Signed relative difference of a measured value vs. the paper's."""
    if paper == 0:
        return float("inf") if measured else 0.0
    return measured / paper - 1.0
