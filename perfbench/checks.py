"""Output checks, run outside the timed region, in pure Python.

Each check returns a list of (path, message) problems; an empty list passes.
None of them calls into netsom, so a fault in the program cannot hide in the
checker.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path

# categorize writes three artifacts from one stage call
_CATEGORIZE_SUFFIXES = (".assign.csv", ".cells.csv", ".som.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_tree(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under root."""
    return {p.relative_to(root).as_posix(): sha256(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def op_key(relpath: str) -> str:
    """The stage call that produced a file (its meta sidecar included)."""
    rel = relpath.removesuffix(".meta.json")
    for suffix in _CATEGORIZE_SUFFIXES:
        if rel.endswith(suffix):
            return rel.removesuffix(suffix) + ".categorize"
    return rel


def compare_digests(ref: dict[str, str], got: dict[str, str]) -> list[tuple[str, str]]:
    problems = []
    for rel in sorted(set(ref) | set(got)):
        if ref.get(rel) != got.get(rel):
            problems.append((rel, "bytes differ from the first iteration"))
    return problems


def check_meta(root: Path) -> list[tuple[str, str]]:
    """Every sidecar's output_sha256 matches the artifact beside it."""
    problems = []
    for meta in sorted(root.rglob("*.meta.json")):
        artifact = meta.with_name(meta.name.removesuffix(".meta.json"))
        rel = artifact.relative_to(root).as_posix()
        recorded = json.loads(meta.read_text(encoding="utf-8")).get("output_sha256")
        if not artifact.is_file():
            problems.append((rel, "artifact named by a meta file is missing"))
        elif recorded != sha256(artifact):
            problems.append((rel, "output_sha256 does not match the file"))
    return problems


def read_adjacency(edges: Path) -> list[list[int]]:
    lines = edges.read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split(":")[1])
    adj: list[list[int]] = [[] for _ in range(n)]
    for line in lines[1:]:
        u, v = map(int, line.split())
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distance_sum(adj: list[list[int]], source: int) -> int:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    total = 0
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                total += dist[v]
                queue.append(v)
    return total


def check_features(features: Path, edges: Path, seed: int,
                   sources: int = 8) -> list[tuple[str, str]]:
    """Brandes identity over all nodes, and exact BFS distance sums for a
    seeded sample of sources."""
    rows = [line.split(",") for line in
            features.read_text(encoding="utf-8").splitlines()[1:]]
    n = len(rows)
    b = [float(r[3]) for r in rows]
    L = [float(r[4]) for r in rows]
    rel = features.name
    problems = []
    # sum over ordered pairs of (d - 1) intermediates, counted two ways
    lhs = sum(b) * (n - 1) * (n - 2)
    rhs = sum(L) * (n - 1) - n * (n - 1)
    if abs(lhs - rhs) > 1e-9 * abs(rhs):
        problems.append((rel, f"Brandes identity fails: {lhs!r} != {rhs!r}"))
    adj = read_adjacency(edges)
    if len(adj) != n:
        return problems + [(rel, f"{n} feature rows for {len(adj)} nodes")]
    for src in random.Random(seed).sample(range(n), min(sources, n)):
        expected = bfs_distance_sum(adj, src) / (n - 1)
        if L[src] != expected:
            problems.append((rel, f"node {src}: L={L[src]!r}, BFS gives {expected!r}"))
    return problems


def check_trace(path: Path, n: int) -> list[tuple[str, str]]:
    """SIR: S+I+R = n in every snapshot and I = 0 at the end. SPD: C+D = n."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    states = header[3:]
    totals: dict[str, list[int]] = {}
    for line in lines[1:]:
        cols = line.split(",")
        snap = totals.setdefault(cols[0], [0] * len(states))
        for j, v in enumerate(cols[3:]):
            snap[j] += int(v)
    rel = path.name
    problems = [(rel, f"snapshot {t}: {sum(c)} agents, expected {n}")
                for t, c in totals.items() if sum(c) != n]
    if not totals:
        problems.append((rel, "trace has no snapshots"))
    elif states == ["S", "I", "R"] and list(totals.values())[-1][1] != 0:
        problems.append((rel, "epidemic trace ends with infected agents"))
    elif states not in (["S", "I", "R"], ["C", "D"]):
        problems.append((rel, f"unexpected trace states {states}"))
    return problems


def check_svg(path: Path) -> list[tuple[str, str]]:
    try:
        ET.parse(path)
    except ET.ParseError as exc:
        return [(path.name, f"not well-formed XML: {exc}")]
    return []


def check_outputs(root: Path, seed: int, edges: Path | None = None
                  ) -> list[tuple[str, str]]:
    """All content checks over one output tree.

    Features and traces are checked against the edge list in their own
    directory, or ``edges`` when the stages read one kept elsewhere.
    """
    problems = check_meta(root)
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name.endswith(".meta.json"):
            continue
        graph = edges or next(path.parent.glob("*.edges"), None)
        if path.suffix == ".svg":
            found = check_svg(path)
        elif path.name == "features.csv" and graph is not None:
            found = check_features(path, graph, seed)
        elif path.suffix == ".csv" and "trace" in path.name and graph is not None:
            found = check_trace(path, _node_count(graph))
        else:
            continue
        rel_dir = path.parent.relative_to(root).as_posix()
        problems += [(f"{rel_dir}/{name}" if rel_dir != "." else name, msg)
                     for name, msg in found]
    return problems


def _node_count(edges: Path) -> int:
    with edges.open(encoding="utf-8") as fh:
        return int(fh.readline().split(":")[1])
