"""Time-stamped per-cell state-count snapshots shared by both simulations."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path

import numpy as np

from .graph import finite_float, nonnegative_int, parse_row


@dataclass
class SimTrace:
    """Ordered snapshots of per-cell agent-state counts.

    ``counts[i]`` has shape (n_states, width*height); cell linear index is
    Y*width + X. ``time_label`` names the time column on disk ("t" for the
    epidemic runs, "round" for the game runs). ``fixed_point`` is set by the
    game runs and is not stored on disk (None when unknown).
    """

    state_names: tuple[str, ...]
    width: int
    height: int
    time_label: str = "t"
    times: list[float] = field(default_factory=list)
    counts: list[np.ndarray] = field(default_factory=list)
    fixed_point: bool | None = None

    @property
    def terminal_time(self) -> float:
        if not self.times:
            raise ValueError("trace is empty")
        return self.times[-1]

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def append(self, t: float, cell_counts: np.ndarray) -> None:
        if self.times and t <= self.times[-1]:
            raise ValueError("snapshot times must be strictly increasing")
        self.times.append(float(t))
        self.counts.append(cell_counts)

    def record(self, t: float, states, cells: np.ndarray) -> None:
        """Append the per-cell counts of agent state codes ``states``, where
        ``cells`` holds each agent's linear cell index."""
        k, n_states = self.n_cells, len(self.state_names)
        codes = np.asarray(states, dtype=np.int64) * k + cells
        self.append(t, np.bincount(codes, minlength=n_states * k).reshape(n_states, k))

    def totals(self, i: int) -> np.ndarray:
        """Whole-network state counts at snapshot i."""
        return self.counts[i].sum(axis=1)

    def nearest_index(self, t: float) -> int:
        """Snapshot index with time closest to t; earlier wins ties."""
        diffs = [abs(s - t) for s in self.times]
        return int(np.argmin(diffs))


def write_trace_csv(trace: SimTrace, path: str | Path) -> None:
    names = ",".join(trace.state_names)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{trace.time_label},X,Y,{names}\n")
        for t, counts in zip(trace.times, trace.counts):
            ts = str(int(round(t))) if trace.time_label == "round" else f"{t:.10g}"
            for lin in range(trace.n_cells):
                x, y = lin % trace.width, lin // trace.width
                vals = ",".join(str(int(counts[s, lin]))
                                for s in range(len(trace.state_names)))
                fh.write(f"{ts},{x},{y},{vals}\n")


def read_trace_csv(path: str | Path) -> SimTrace:
    with Path(path).open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 4 or header[1:3] != ["X", "Y"]:
            raise ValueError(f"{path}: unexpected trace header {header}")
        time_label = header[0]
        state_names = tuple(header[3:])
        types = (finite_float,) + (nonnegative_int,) * (2 + len(state_names))
        rows = []
        for r in filter(None, reader):
            rows.append(parse_row(path, reader, r, header, types))
            if len(rows) > 1 and rows[-1][0] < rows[-2][0]:
                raise ValueError(f"{path}:{reader.line_num}: snapshot times "
                                 f"must be strictly increasing")
    if not rows:
        raise ValueError(f"{path}: empty trace")
    width = 1 + max(r[1] for r in rows)
    height = 1 + max(r[2] for r in rows)
    trace = SimTrace(state_names=state_names, width=width, height=height,
                     time_label=time_label)
    for t, block in groupby(rows, key=lambda r: r[0]):  # one snapshot per run of t
        counts = np.zeros((len(state_names), width * height), dtype=np.int64)
        for _, x, y, *vals in block:
            counts[:, y * width + x] = vals
        trace.append(t, counts)
    return trace
