"""Time-stamped per-cell state-count snapshots shared by both simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (finite_float, format_rows, lattice, nonnegative_int,
                    read_table, write_text)


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


def write_trace_csv(trace: SimTrace, path: str | Path) -> str:
    """One row per snapshot and cell; returns the sha256 of the bytes written."""
    names = ",".join(trace.state_names)
    rows = [f"{trace.time_label},X,Y,{names}\n"]
    lin = np.arange(trace.n_cells)
    cells = (lin % trace.width).tolist(), (lin // trace.width).tolist()
    row = ",%d,%d" + ",%d" * len(trace.state_names) + "\n"
    for t, counts in zip(trace.times, trace.counts):
        rows.append(format_rows(f"{t:.10g}" + row, *cells, *counts[:, lin].tolist()))
    return write_text(path, "".join(rows))


def read_trace_csv(path: str | Path) -> SimTrace:
    """The trace that :func:`write_trace_csv` writes, in any row order, read
    by :func:`graph.read_table`. Its counts are read-only: a run shares one
    parse between its stages."""
    header, columns, lines = read_table(path, _header_ok, _types)
    times = columns[0]
    late = np.flatnonzero(times[1:] < times[:-1])
    if late.size:
        raise ValueError(f"{path}:{lines[late[0] + 1]}: snapshot times "
                         f"must be strictly increasing")
    width, height, order = lattice(path, columns, lines, keys=1)
    trace = SimTrace(state_names=tuple(header[3:]), width=width, height=height,
                     time_label=header[0])
    values = np.column_stack(columns[3:])[order]
    values.setflags(write=False)
    for lo in range(0, len(values), trace.n_cells):  # one snapshot per block
        trace.append(times[order[lo]], values[lo:lo + trace.n_cells].T)
    return trace


def _header_ok(header: list[str]) -> bool:
    return len(header) >= 4 and header[1:3] == ["X", "Y"]


def _types(header: list[str], _row) -> tuple:
    return (finite_float,) + (nonnegative_int,) * (len(header) - 1)
