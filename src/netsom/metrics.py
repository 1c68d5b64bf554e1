"""Per-node structural features: degree, average neighbor degree, normalized
betweenness, average shortest-path length, and local clustering coefficient.

Betweenness and path lengths come from one Brandes-style pass per source,
vectorized over BFS frontiers, so exact values stay tractable at 10^4 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, gather_rows, read_node_csv

FEATURE_NAMES = ("k", "k_nn", "b", "L", "C")


@dataclass
class NodeFeatures:
    """The five per-node features, aligned by node id."""

    k: np.ndarray     # degree
    k_nn: np.ndarray  # mean neighbor degree (0 for isolated nodes)
    b: np.ndarray     # betweenness, normalized to [0, 1]
    L: np.ndarray     # mean shortest-path length to all other nodes
    C: np.ndarray     # local clustering coefficient (0 for degree < 2)

    @property
    def n(self) -> int:
        return self.k.size

    def as_matrix(self) -> np.ndarray:
        """(n, 5) float matrix in FEATURE_NAMES column order."""
        return np.column_stack([self.k.astype(np.float64), self.k_nn,
                                self.b, self.L, self.C])


def compute_avg_neighbor_degree(graph: Graph) -> np.ndarray:
    """k_nn(i) = mean degree over neighbors of i; 0 when i is isolated."""
    deg = graph.degrees.astype(np.float64)
    src, dst = graph.directed_edges()
    sums = np.bincount(src, weights=deg[dst], minlength=graph.n)
    return np.divide(sums, deg, out=np.zeros(graph.n), where=deg > 0)


def compute_betweenness(graph: Graph) -> np.ndarray:
    """Fraction of all-pairs shortest paths through each node.

    The raw Brandes accumulation counts every unordered pair twice (once per
    endpoint as source), so the pair-sum is raw/2, normalized by
    (N-1)(N-2)/2. Unreachable pairs contribute nothing.
    """
    if graph.n < 3:
        raise ValueError("betweenness needs at least 3 nodes")
    raw, _ = _brandes_all_sources(graph, require_connected=False)
    return raw / ((graph.n - 1) * (graph.n - 2))


def compute_avg_path_length(graph: Graph) -> np.ndarray:
    """L(i) = sum of hop distances from i to every other node, over N-1.

    Raises on disconnected input, naming an unreachable pair.
    """
    if graph.n == 1:
        return np.zeros(1)
    _, dist_sums = _brandes_all_sources(graph, require_connected=True)
    return dist_sums / (graph.n - 1)


def compute_clustering(graph: Graph) -> np.ndarray:
    """C(i) = links among neighbors of i over k_i(k_i-1)/2; 0 for k_i < 2."""
    deg = graph.degrees
    # summing common-neighbor counts over a node's incident edges hits every
    # neighborhood link twice, so tri2 = 2 * E_i
    tri2 = np.zeros(graph.n)
    indptr, indices = graph.indptr, graph.indices
    for u, v in graph.edge_array():
        c = _count_common(indices[indptr[u]:indptr[u + 1]],
                          indices[indptr[v]:indptr[v + 1]])
        tri2[u] += c
        tri2[v] += c
    possible = deg * (deg - 1)
    return np.divide(tri2, possible, out=np.zeros(graph.n), where=possible > 0)


def compute_all(graph: Graph) -> NodeFeatures:
    """All five features in one pass over sources plus the local measures."""
    if graph.n < 3:
        raise ValueError("feature vector needs at least 3 nodes")
    raw, dist_sums = _brandes_all_sources(graph, require_connected=True)
    return NodeFeatures(
        k=graph.degrees.copy(),
        k_nn=compute_avg_neighbor_degree(graph),
        b=raw / ((graph.n - 1) * (graph.n - 2)),
        L=dist_sums / (graph.n - 1),
        C=compute_clustering(graph),
    )


def degree_assortativity(graph: Graph) -> float:
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


# ---------------------------------------------------------------------------
# Brandes accumulation, one vectorized BFS per source


def _brandes_all_sources(graph: Graph, require_connected: bool):
    """Returns (raw betweenness, per-node distance sums).

    raw[i] accumulates the Brandes dependency of every source on i, i.e. each
    unordered pair is counted twice. dist_sums[i] is sum_j d(i, j), valid only
    when the graph is connected; with ``require_connected`` a disconnected
    graph raises, naming a pair (source, node) with no connecting path.
    """
    n = graph.n
    indptr = graph.indptr.astype(np.int64)
    indices = graph.indices.astype(np.int64)
    counts_all = graph.degrees

    raw = np.zeros(n)
    dist_sums = np.zeros(n)

    dist = np.empty(n, dtype=np.int32)
    sigma = np.empty(n)
    delta = np.empty(n)

    for s in range(n):
        dist.fill(-1)
        sigma.fill(0.0)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        # per level: (nodes, their concatenated neighbors, their degrees),
        # kept so the backward pass reuses the forward gathers
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        while True:
            counts = counts_all[frontier]
            flat = gather_rows(indptr, indices, counts, frontier)
            levels.append((frontier, flat, counts))
            undiscovered = dist[flat] == -1
            targets = flat[undiscovered]
            if targets.size == 0:
                break
            add = np.bincount(targets,
                              weights=np.repeat(sigma[frontier], counts)[undiscovered],
                              minlength=n)
            sigma += add
            frontier = np.flatnonzero(add > 0)
            dist[frontier] = len(levels)

        if require_connected:
            missing = np.flatnonzero(dist < 0)
            if missing.size:
                raise ValueError(f"graph is disconnected: no path between "
                                 f"nodes {s} and {missing[0]}")
            dist_sums[s] = dist.sum(dtype=np.int64)

        # backward: dependency accumulation from the deepest level inward
        delta.fill(0.0)
        for d in range(len(levels) - 1, 0, -1):
            nodes, flat, counts = levels[d]
            coeff = (1.0 + delta[nodes]) / sigma[nodes]
            rep = np.repeat(coeff, counts)
            pred = dist[flat] == d - 1
            preds = flat[pred]
            delta += np.bincount(preds, weights=sigma[preds] * rep[pred],
                                 minlength=n)
        delta[s] = 0.0
        raw += delta

    return raw, dist_sums


def _count_common(a: np.ndarray, b: np.ndarray) -> int:
    """Size of the intersection of two sorted unique id arrays."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    pos = np.searchsorted(b, a)
    pos[pos == b.size] = 0  # out-of-range never matches below anyway
    return int(np.count_nonzero(b[pos] == a))


# ---------------------------------------------------------------------------
# CSV round-trip (node,k,k_nn,b,L,C; floats at full precision)


def write_features_csv(features: NodeFeatures, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,k,k_nn,b,L,C\n")
        for i in range(features.n):
            fh.write(f"{i},{int(features.k[i])},{features.k_nn[i]:.17g},"
                     f"{features.b[i]:.17g},{features.L[i]:.17g},"
                     f"{features.C[i]:.17g}\n")


def read_features_csv(path: str | Path) -> NodeFeatures:
    rows = read_node_csv(path, ("node",) + FEATURE_NAMES,
                         (int, int, float, float, float, float))
    return NodeFeatures(
        k=np.array([r[1] for r in rows], dtype=np.int64),
        k_nn=np.array([r[2] for r in rows]),
        b=np.array([r[3] for r in rows]),
        L=np.array([r[4] for r in rows]),
        C=np.array([r[5] for r in rows]),
    )
