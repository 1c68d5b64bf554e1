"""Time-stamped per-cell state-count snapshots shared by both simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import finite_float, lattice, nonnegative_int, read_csv, write_text


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
    rows = [f"{trace.time_label},X,Y,{names}\n"]
    for t, counts in zip(trace.times, trace.counts):
        ts = f"{t:.10g}"
        for lin in range(trace.n_cells):
            x, y = lin % trace.width, lin // trace.width
            vals = ",".join(str(int(counts[s, lin]))
                            for s in range(len(trace.state_names)))
            rows.append(f"{ts},{x},{y},{vals}\n")
    write_text(path, "".join(rows))


def read_trace_csv(path: str | Path) -> SimTrace:
    header, rows, lines = read_csv(
        path, lambda h: len(h) >= 4 and h[1:3] == ["X", "Y"],
        lambda h, _row: (finite_float,) + (nonnegative_int,) * (len(h) - 1))
    times = [r[0] for r in rows]
    for i in range(1, len(rows)):
        if times[i] < times[i - 1]:
            raise ValueError(f"{path}:{lines[i]}: snapshot times "
                             f"must be strictly increasing")
    width, height, rows = lattice(path, rows, lines, keys=1)
    trace = SimTrace(state_names=tuple(header[3:]), width=width, height=height,
                     time_label=header[0])
    values = np.array([r[3:] for r in rows], dtype=np.int64)
    for lo in range(0, len(rows), trace.n_cells):  # one snapshot per block
        trace.append(rows[lo][0], values[lo:lo + trace.n_cells].T)
    return trace
