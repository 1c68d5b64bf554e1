"""Independent brute-force oracles for the metric tests, the degree
assortativity that the generator tests check, one-row-at-a-time
readers of the five formats that a run parses whole, and the plain forms
of the CSR build and the game loop that the library runs faster.

These deliberately avoid the library's algorithms: betweenness enumerates
every shortest path explicitly, distances come from Floyd-Warshall,
clustering counts neighbor pairs directly, and the readers parse each line
with Python's ``int`` and ``float``.
"""

from __future__ import annotations

import csv
import itertools
import re
from collections import deque
from pathlib import Path

import numpy as np

from netsom import (CellAssignment, CellStats, NodeFeatures, SimTrace, build_graph,
                    init_spd, play_round, update_strategies)
from netsom.graph import Graph, finite_float, nonnegative_int
from netsom.spd import STATE_NAMES


def adjacency(graph) -> list[list[int]]:
    return [list(graph.neighbors(i)) for i in range(graph.n)]


def bfs_distances(adj: list[list[int]], s: int) -> list[int]:
    """Hop distance from s to every node, -1 where there is no path."""
    dist = [-1] * len(adj)
    dist[s] = 0
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


def is_connected(graph) -> bool:
    """Every node has a path from node 0."""
    return -1 not in bfs_distances(adjacency(graph), 0)


def all_shortest_paths(adj: list[list[int]], s: int, t: int) -> list[list[int]]:
    """Every shortest s-t path, as explicit node sequences."""
    dist = bfs_distances(adj, s)
    if dist[t] == -1:
        return []
    paths: list[list[int]] = []

    def extend(path: list[int]) -> None:
        v = path[-1]
        if v == t:
            paths.append(list(path))
            return
        for w in adj[v]:
            if dist[w] == dist[v] + 1 and dist[w] <= dist[t]:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return paths


def betweenness_bruteforce(graph) -> list[float]:
    """Normalized betweenness via explicit path enumeration (N <= ~12)."""
    n = graph.n
    adj = adjacency(graph)
    score = [0.0] * n
    for s, t in itertools.combinations(range(n), 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        for path in paths:
            for v in path[1:-1]:
                score[v] += 1.0 / len(paths)
    denom = (n - 1) * (n - 2) / 2
    return [x / denom for x in score]


def floyd_warshall(graph) -> list[list[float]]:
    inf = float("inf")
    n = graph.n
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0.0
        for j in graph.neighbors(i):
            d[i][j] = 1.0
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def avg_path_length_bruteforce(graph) -> list[float]:
    d = floyd_warshall(graph)
    n = graph.n
    return [sum(d[i][j] for j in range(n) if j != i) / (n - 1) for i in range(n)]


def clustering_bruteforce(graph) -> list[float]:
    out = []
    for i in range(graph.n):
        nbrs = list(graph.neighbors(i))
        k = len(nbrs)
        if k < 2:
            out.append(0.0)
            continue
        links = sum(1 for a, b in itertools.combinations(nbrs, 2)
                    if b in set(graph.neighbors(a)))
        out.append(links / (k * (k - 1) / 2))
    return out


def degree_assortativity(graph) -> float:
    """Pearson correlation of end-point degrees over all edges (both
    orientations); positive when similar-degree nodes attach to each other."""
    src, dst = graph.directed_edges()
    if src.size == 0:
        return 0.0
    x = graph.degrees[src].astype(np.float64)
    y = graph.degrees[dst].astype(np.float64)
    vx = x.var()
    if vx == 0.0:
        return 0.0  # regular graph: correlation undefined, report 0
    return float(((x - x.mean()) * (y - y.mean())).mean() / vx)


def avg_neighbor_degree_bruteforce(graph) -> list[float]:
    degs = [len(graph.neighbors(i)) for i in range(graph.n)]
    out = []
    for i in range(graph.n):
        nbrs = list(graph.neighbors(i))
        out.append(sum(degs[j] for j in nbrs) / len(nbrs) if nbrs else 0.0)
    return out


# ---------------------------------------------------------------------------
# per-row readers: each line parsed on its own, as netsom read every file
# before it parsed whole files with numpy's C reader


def _lines(path):
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None


def rows_load_edge_list(path):
    header_n = None
    pairs = []
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r"#\s*nodes:\s*(\d+)\s*$", line)
            if m:
                try:
                    header_n = nonnegative_int(m.group(1))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: node count {m.group(1)} "
                                     f"is beyond the int32 range") from None
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: negative node id in {line!r}")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop on node {u} is not allowed")
        if header_n is not None and max(u, v) >= header_n:
            raise ValueError(f"{path}:{lineno}: node id out of range "
                             f"[0, {header_n}) in {line!r}")
        pairs.append((u, v))
    if not pairs and header_n is None:
        raise ValueError(f"{path}: empty edge list with no '# nodes: N' header")
    n = header_n if header_n is not None else 1 + max(max(u, v) for u, v in pairs)
    try:
        return build_graph(n, pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_csv(path, header_ok, types):
    """(header, rows, their line numbers), each non-blank row parsed with
    ``types(header, row)``."""
    reader = csv.reader(_lines(path))
    rows, lines = [], []
    try:
        header = next(reader, [])
        if not header_ok(header):
            raise ValueError(f"{path}: unexpected header {header}")
        for row in filter(None, reader):
            fields = types(header, row)
            try:
                if len(row) != len(fields):
                    raise ValueError
                rows.append(tuple(t(v) for t, v in zip(fields, row)))
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{','.join(header)}, got {row}") from None
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return header, rows, lines


def _lattice(path, rows, lines, keys=0):
    """(width, height, the rows sorted by (key..., Y, X)) of rows that hold
    ``keys`` key fields, then X, Y, and list every cell once per key."""
    cells = [row[:keys + 2] for row in rows]
    width = 1 + max(cell[-2] for cell in cells)
    height = 1 + max(cell[-1] for cell in cells)
    seen = set()
    for cell, line in zip(cells, lines):
        if cell in seen:
            raise ValueError(f"{path}:{line}: cell ({cell[-2]}, {cell[-1]}) "
                             f"is listed twice")
        seen.add(cell)
    if len(cells) != len({cell[:-2] for cell in cells}) * width * height:
        raise ValueError(f"{path}: {len(cells)} rows do not list each cell of "
                         f"a {width}x{height} lattice once")
    return width, height, sorted(rows, key=lambda r: (*r[:keys], r[keys + 1], r[keys]))


def _node_rows(path, header, types):
    _, rows, _ = _read_csv(path, lambda got: got == list(header),
                           lambda _header, _row: types)
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids are not contiguous from 0")
    return rows


def rows_read_features_csv(path):
    rows = _node_rows(path, ("node", "k", "k_nn", "b", "L", "C"),
                      (nonnegative_int,) * 2 + (finite_float,) * 4)
    _, k, *floats = np.array(rows, dtype=np.float64).T.copy()
    return NodeFeatures(k.astype(np.int64), *floats)


def rows_read_assignment_csv(path):
    rows = _node_rows(path, ("node", "X", "Y"), (nonnegative_int,) * 3)
    _, x, y = np.array(rows, dtype=np.int64).T.copy()
    return CellAssignment(width=int(x.max()) + 1, height=int(y.max()) + 1, x=x, y=y)


def _float_or_blank(field):
    return float(field) if field else np.nan


def rows_read_cell_stats_csv(path):
    def types(header, row):
        mean = _float_or_blank if row[2:3] == ["0"] else finite_float
        return (nonnegative_int,) * 3 + (mean,) * (len(header) - 3)

    header, rows, lines = _read_csv(
        path, lambda h: h[:3] == ["X", "Y", "count"] and len(h) > 3, types)
    width, height, rows = _lattice(path, rows, lines)
    counts = np.array([r[2] for r in rows], dtype=np.int64)
    means = np.array([r[3:] for r in rows], dtype=np.float64)
    means[counts == 0] = np.nan
    return CellStats(width=width, height=height, counts=counts, means=means,
                     feature_names=tuple(h.removeprefix("mean_") for h in header[3:]))


def rows_read_trace_csv(path):
    header, rows, lines = _read_csv(
        path, lambda h: len(h) >= 4 and h[1:3] == ["X", "Y"],
        lambda h, _row: (finite_float,) + (nonnegative_int,) * (len(h) - 1))
    times = [r[0] for r in rows]
    for i in range(1, len(rows)):
        if times[i] < times[i - 1]:
            raise ValueError(f"{path}:{lines[i]}: snapshot times "
                             f"must be strictly increasing")
    width, height, rows = _lattice(path, rows, lines, keys=1)
    trace = SimTrace(state_names=tuple(header[3:]), width=width, height=height,
                     time_label=header[0])
    values = np.array([r[3:] for r in rows], dtype=np.int64)
    for lo in range(0, len(rows), trace.n_cells):
        trace.append(rows[lo][0], values[lo:lo + trace.n_cells].T)
    return trace


# ---------------------------------------------------------------------------
# plain forms: the CSR built through np.unique, and the game played round by
# round to the cap, as netsom ran them before it sorted keys and replayed
# cycles


def unique_build_graph(node_count, edges):
    n = int(node_count)
    if not 0 <= n < 2**31:
        raise ValueError(f"node count {n} is outside the int32 range of the "
                         f"adjacency")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be pairs of node ids")
    if e.size:
        if e.min() < 0 or e.max() >= n:
            bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
            raise ValueError(f"edge ({bad[0]}, {bad[1]}) has id out of range [0, {n})")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on node {e[loops][0][0]} is not allowed")
    both = np.concatenate([e, e[:, ::-1]])
    src, dst = np.divmod(np.unique(both[:, 0] * n + both[:, 1]), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, dst.astype(np.int32))


def rounds_run_spd(graph, assignment, T, eps, seed, max_rounds, tie):
    init_seed, tie_seed = np.random.SeedSequence(seed).spawn(2)
    strategies = init_spd(graph, seed=init_seed)
    tie_rng = np.random.default_rng(tie_seed)
    cells = assignment.linear()
    trace = SimTrace(state_names=STATE_NAMES, width=assignment.width,
                     height=assignment.height, time_label="round",
                     fixed_point=False)
    trace.record(0.0, strategies, cells)
    for rnd in range(1, max_rounds + 1):
        payoffs = play_round(graph, strategies, T=T, eps=eps)
        nxt = update_strategies(graph, strategies, payoffs, tie=tie, rng=tie_rng)
        trace.record(float(rnd), nxt, cells)
        if np.array_equal(nxt, strategies):
            trace.fixed_point = True
            break
        strategies = nxt
    return trace
