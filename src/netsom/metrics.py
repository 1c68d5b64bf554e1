"""Per-node structural features: degree, average neighbor degree, normalized
betweenness, average shortest-path length, and local clustering coefficient.

Betweenness and path lengths come from one Brandes-style pass per source,
vectorized over BFS levels, each level scanned top-down from the frontier
or bottom-up from the undiscovered nodes, whichever touches fewer edges.
Sources run in blocks of 512 on forked worker processes, so exact values
stay tractable at 10^4 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import worker_count
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
    if graph.n <= 1:
        return np.zeros(graph.n)
    _, dist_sums = _brandes_all_sources(graph, require_connected=True)
    return dist_sums / (graph.n - 1)


def compute_clustering(graph: Graph) -> np.ndarray:
    """C(i) = links among neighbors of i over k_i(k_i-1)/2; 0 for k_i < 2.

    Triangles are listed once each from their lowest-ranked corner, ranking
    nodes by (degree, id): every edge points to its higher-ranked end, and
    a pair of out-neighbors of a node closes a triangle when it is an edge.
    A node has at most sqrt(2m) out-neighbors, so there are O(m sqrt(m))
    such pairs.
    """
    n, deg = graph.n, graph.degrees
    src, dst = graph.directed_edges()
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    up = rank[src] < rank[dst]
    tail, head = src[up], dst[up]  # grouped by tail, heads ascending by id
    out_end = np.cumsum(np.bincount(tail, minlength=n))
    # every pair (i, j) of positions i < j in one tail's run, so head[i] < head[j]
    later = out_end[tail] - np.arange(tail.size) - 1
    i = np.repeat(np.arange(tail.size), later)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(later) - later, later)
    keys = head[i] * n + head[j]
    lower = src < dst
    edge_keys = src[lower] * n + dst[lower]  # ascending
    at = np.searchsorted(edge_keys, keys)
    closed = edge_keys[np.minimum(at, edge_keys.size - 1)] == keys
    tri = np.bincount(np.concatenate([tail[i[closed]], head[i[closed]],
                                      head[j[closed]]]), minlength=n)
    possible = deg * (deg - 1)
    return np.divide(2.0 * tri, possible, out=np.zeros(n), where=possible > 0)


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
# Brandes accumulation, one vectorized BFS per source, over fixed source blocks

# Sources per block. The layout depends only on n, and block results are
# summed in block order, so the output bytes do not depend on the worker count.
SOURCE_BLOCK = 512


def _brandes_all_sources(graph: Graph, require_connected: bool):
    """Returns (raw betweenness, per-node distance sums).

    raw[i] accumulates the Brandes dependency of every source on i, i.e. each
    unordered pair is counted twice. dist_sums[i] is sum_j d(i, j), valid only
    when the graph is connected; with ``require_connected`` a disconnected
    graph raises, naming a pair (source, node) with no connecting path.

    Blocks of SOURCE_BLOCK sources run on forked worker processes, as many
    as the NETSOM_THREADS cap allows; the workers inherit the graph through
    the fork rather than a pickle. A graph of one block runs in this process.
    """
    starts = range(0, graph.n, SOURCE_BLOCK)
    workers = worker_count(len(starts))
    if workers == 1:
        parts = [_brandes_block(graph, lo, require_connected) for lo in starts]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=_inherit,
                                 initargs=(graph, require_connected)) as pool:
            parts = list(pool.map(_inherited_block, starts))
    raw = sum(part for part, _ in parts)  # in block order
    return raw, np.concatenate([sums for _, sums in parts])


# (graph, require_connected) in a forked block worker, set by _inherit
_inherited: tuple = ()


def _inherit(graph: Graph, require_connected: bool) -> None:
    global _inherited
    _inherited = (graph, require_connected)


def _inherited_block(lo: int):
    graph, require_connected = _inherited
    return _brandes_block(graph, lo, require_connected)


def _brandes_block(graph: Graph, lo: int, require_connected: bool):
    """Raw betweenness summed over sources lo..lo+SOURCE_BLOCK-1, and those
    sources' distance sums.

    Each BFS level is scanned from the cheaper side (Beamer et al. 2012):
    top-down gathers the frontier's rows and keeps undiscovered neighbors;
    bottom-up gathers the undiscovered nodes' rows and keeps neighbors on
    the frontier, once the frontier's degree sum exceeds the undiscovered
    nodes' degree sum plus their count. Both list a level's DAG edges with
    each child's parents ascending and each parent's children ascending
    (CSR rows are sorted, frontiers ascending), so the order-dependent
    bincount sums, and the output bits, do not depend on the direction.
    """
    n = graph.n
    indptr = graph.indptr.astype(np.int64)
    indices = graph.indices.astype(np.int64)
    deg = graph.degrees
    sources = range(lo, min(lo + SOURCE_BLOCK, n))

    raw = np.zeros(n)
    dist_sums = np.zeros(len(sources))

    dist = np.empty(n, dtype=np.int32)
    sigma = np.empty(n)
    delta = np.empty(n)

    for s in sources:
        dist.fill(-1)
        sigma.fill(0.0)
        dist[s] = 0
        sigma[s] = 1.0
        frontier = np.array([s], dtype=np.int64)
        counts = deg[frontier]
        frontier_deg = int(deg[s])
        # undiscovered nodes: their count and degree sum, and their ids once
        # a level is scanned bottom-up
        left, left_deg = n - 1, indices.size - frontier_deg
        rest = None
        # the BFS DAG, one (parents, children) edge list per level
        levels: list[tuple[np.ndarray, np.ndarray]] = []

        while left:  # or until a level finds no new node (disconnected)
            if frontier_deg > left_deg + left:
                rest = (np.flatnonzero(dist == -1) if rest is None
                        else rest[dist[rest] == -1])
                rest_counts = deg[rest]
                flat = gather_rows(indptr, indices, rest_counts, rest)
                hit = dist[flat] == len(levels)
                parents = flat[hit]
                children = np.repeat(rest, rest_counts)[hit]
            else:
                flat = gather_rows(indptr, indices, counts, frontier)
                undiscovered = dist[flat] == -1
                children = flat[undiscovered]
                parents = np.repeat(frontier, counts)[undiscovered]
            if children.size == 0:
                break
            add = np.bincount(children, weights=sigma[parents], minlength=n)
            sigma += add
            levels.append((parents, children))
            frontier = np.flatnonzero(add > 0)
            dist[frontier] = len(levels)
            counts = deg[frontier]
            frontier_deg = int(counts.sum())
            left -= frontier.size
            left_deg -= frontier_deg

        if require_connected:
            if left:
                missing = np.flatnonzero(dist < 0)
                raise ValueError(f"graph is disconnected: no path between "
                                 f"nodes {s} and {missing[0]}")
            dist_sums[s - lo] = dist.sum(dtype=np.int64)

        # backward: dependency accumulation from the deepest level inward
        delta.fill(0.0)
        for parents, children in reversed(levels):
            coeff = (1.0 + delta[children]) / sigma[children]
            delta += np.bincount(parents, weights=sigma[parents] * coeff,
                                 minlength=n)
        delta[s] = 0.0
        raw += delta

    return raw, dist_sums


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
