"""Independent brute-force oracles for the metric tests, and the degree
assortativity that the generator tests check.

These deliberately avoid the library's algorithms: betweenness enumerates
every shortest path explicitly, distances come from Floyd-Warshall, and
clustering counts neighbor pairs directly.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np


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
