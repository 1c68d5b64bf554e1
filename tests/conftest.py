"""Shared fixtures: seeded random graphs, a process-tree probe and the
acceptance report hook."""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from netsom import build_graph

_ACCEPTANCE_LINES: list[str] = []


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edges: int | None = None):
    """Random connected graph: a random attachment tree plus extra edges."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, max(1, n)))
    for _ in range(extra_edges):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_graph(n, sorted(edges))


def live_descendants() -> set[int]:
    """Ids of the processes, zombies included, descended from this one:
    ``multiprocessing.active_children()`` plus every process whose parent
    chain in ``/proc/<pid>/stat`` leads here."""
    found = {p.pid for p in multiprocessing.active_children()}
    parent = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ..."; comm may hold spaces or ")"
            fields = stat.read_text().rsplit(")", 1)[1].split()
            parent[int(stat.parent.name)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue  # exited while being listed
    todo = [os.getpid()]
    while todo:
        here = todo.pop()
        kids = [pid for pid, ppid in parent.items() if ppid == here]
        found.update(kids)
        todo.extend(kids)
    return found


@pytest.fixture(scope="session")
def criterion_report():
    """Collects one line per acceptance criterion for the terminal summary."""
    def record(cid: str, passed: bool, detail: str = "") -> None:
        status = "PASS" if passed else "FAIL"
        suffix = f" — {detail}" if detail else ""
        _ACCEPTANCE_LINES.append(f"ACCEPTANCE {cid}: {status}{suffix}")
    return record


def pytest_report_header(config):
    # the byte pins were recorded on one numpy; a pin that fails on another
    # names the numpy it ran on
    return f"numpy {np.__version__} (byte pins recorded on numpy 2.4.6)"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
