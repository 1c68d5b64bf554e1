"""Time-stamped per-cell state-count snapshots shared by both simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import (finite_float, format_rows, lattice, nonnegative_int,
                    read_csv, whole_table, write_text)


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
    """The trace that :func:`write_trace_csv` writes, in any row order. Its
    counts are read-only: a run shares one parse between its stages. Parsed
    whole by :func:`graph.whole_table` where it can, else, and for a file
    that fails a check, one row at a time, which names the line at fault."""
    table = whole_table(Path(path).read_bytes(), _header_ok, _types)
    if table is not None:
        header, (t, x, y, *counts) = table
        width, height = int(x.max()) + 1, int(y.max()) + 1
        order = np.lexsort((x, y, t))
        keys = np.column_stack([t, y, x])[order]
        ordered = (t[1:] >= t[:-1]).all()
        repeats = (keys[1:] == keys[:-1]).all(axis=1).any()
        snapshots = 1 + int((t[1:] != t[:-1]).sum())
        if ordered and not repeats and t.size == snapshots * width * height:
            return _trace(header, width, height, keys[:, 0],
                          np.column_stack(counts)[order])
    return _trace_rows(path)


def _header_ok(header: list[str]) -> bool:
    return len(header) >= 4 and header[1:3] == ["X", "Y"]


def _types(header: list[str], _row) -> tuple:
    return (finite_float,) + (nonnegative_int,) * (len(header) - 1)


def _trace_rows(path: str | Path) -> SimTrace:
    """:func:`read_trace_csv` one row at a time."""
    header, rows, lines = read_csv(path, _header_ok, _types)
    times = [r[0] for r in rows]
    for i in range(1, len(rows)):
        if times[i] < times[i - 1]:
            raise ValueError(f"{path}:{lines[i]}: snapshot times "
                             f"must be strictly increasing")
    width, height, rows = lattice(path, rows, lines, keys=1)
    return _trace(header, width, height, [r[0] for r in rows],
                  np.array([r[3:] for r in rows], dtype=np.int64))


def _trace(header: list[str], width: int, height: int, times,
           values: np.ndarray) -> SimTrace:
    """The trace of a checked table: ``times`` and the state counts
    ``values`` of its rows, sorted by (time, Y, X)."""
    trace = SimTrace(state_names=tuple(header[3:]), width=width, height=height,
                     time_label=header[0])
    values.setflags(write=False)
    for lo in range(0, len(values), trace.n_cells):  # one snapshot per block
        trace.append(times[lo], values[lo:lo + trace.n_cells].T)
    return trace
