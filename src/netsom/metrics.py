"""Per-node structural features: degree, average neighbor degree, normalized
betweenness, average shortest-path length, and local clustering coefficient.

:func:`compute_all` is the one entry point. Betweenness and path lengths
come from one Brandes-style pass per source (Brandes 2001), vectorized over
BFS levels, each level scanned top-down from the frontier or bottom-up from
the undiscovered nodes, whichever touches fewer edges. The pass runs on the
graph without its degree-1 nodes, each core node weighted by one plus its
number of leaves; the leaves' values follow exactly from their parents'.
Every node needs an average path length, so connectivity is checked once,
before the pass: a disconnected graph is rejected, naming node 0 and the
lowest node with no path from it. Core sources run in blocks of 512 on
forked worker processes, so exact values stay tractable at 10^4 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .config import CHOICES, fork_map
from .graph import (Graph, build_graph, finite_float, gather_rows,
                    nonnegative_int, read_node_csv, write_text)

FEATURE_NAMES = CHOICES["som.log_features"]


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
    """All five features in one pass over sources plus the local measures.

    The raw Brandes accumulation counts every unordered pair twice (once per
    endpoint as source), so the pair-sum is raw/2, normalized by
    (N-1)(N-2)/2; L(i) is the sum of hop distances from i over N-1.
    """
    if graph.n < 3:
        raise ValueError("feature vector needs at least 3 nodes")
    reached = graph.reached()
    if not reached.all():
        raise ValueError(f"graph is disconnected: no path between nodes 0 "
                         f"and {np.argmin(reached)}")
    raw, dist_sums = _brandes_all_sources(graph)
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

# Core sources per block. The layout depends only on the core size, and block
# results are summed in block order, so the output bytes do not depend on the
# worker count.
SOURCE_BLOCK = 512


def _brandes_all_sources(graph: Graph):
    """Returns (raw betweenness, per-node distance sums) of a connected graph.

    raw[i] accumulates the Brandes dependency of every source on i, i.e. each
    unordered pair is counted twice. dist_sums[i] is sum_j d(i, j), an
    integer.

    The pass runs on the leaf-pruned core (Baglioni et al. 2012; Sariyuce et
    al. 2013): core node v stands for itself and its ell(v) leaves, with
    weight omega(v) = 1 + ell(v), and Lambda leaves are pruned in all. A
    leaf is on no path between two other nodes, and its paths all run
    through its parent p, so the n-node values are exact:

    - core v: dist_sum(v) = sum_t omega(t) d(v, t) + Lambda, and
      raw(v) = sum_{s != v} omega(s) delta_s(v) + ell(v)(n - 2), where
      delta_s weighs target t by omega(t) and starts at ell(v), which adds
      the pairs from the nodes of s to the leaves of v; ell(v)(n - 2) adds
      the pairs from a leaf of v to every node but v and itself;
    - leaf u: dist_sum(u) = dist_sum(p) + n - 2, and raw(u) = 0.

    So every core source's delta_s is scaled by omega(s), exactly by 1 for
    a source without leaves.

    Blocks of SOURCE_BLOCK core sources run through :func:`fork_map`, on as
    many forked workers as the NETSOM_THREADS cap allows; the workers
    inherit the core through the fork rather than a pickle.
    """
    core, ids, ell, rep, is_leaf = _leaf_core(graph)
    parts = fork_map(partial(_brandes_block, core, ell),
                     range(0, core.n, SOURCE_BLOCK))
    n = graph.n
    raw = np.zeros(n)
    raw[ids] = sum(part for part, _ in parts) + ell * (n - 2)  # in block order
    sums = np.concatenate([sums for _, sums in parts]) + ell.sum()
    return raw, sums[rep] + (n - 2) * is_leaf


def _leaf_core(graph: Graph):
    """The graph without its leaves: (core, ids, ell, rep, is_leaf).

    A leaf is a degree-1 node. The graph is connected with n >= 3, so a
    leaf's one neighbor, its parent, is in the core, and the core is
    connected. Core ids keep the original order: ids[c] is core node c's
    original id and ell[c] its number of leaves; rep[i] is the core id of
    node i, or of its parent for a leaf.
    """
    is_leaf = graph.degrees == 1
    ids = np.flatnonzero(~is_leaf)
    rep = np.cumsum(~is_leaf) - 1
    rep[is_leaf] = rep[graph.indices[graph.indptr[:-1][is_leaf]]]
    ell = np.bincount(rep[is_leaf], minlength=ids.size)
    edges = graph.edge_array()
    core = build_graph(ids.size, rep[edges[~is_leaf[edges].any(axis=1)]])
    return core, ids, ell, rep, is_leaf


def _brandes_block(core: Graph, ell: np.ndarray, lo: int):
    """Weighted raw betweenness of the connected core summed over core
    sources lo..lo+SOURCE_BLOCK-1, and those sources' weighted distance sums
    less Lambda (see :func:`_brandes_all_sources`).

    Each BFS level is scanned from the cheaper side (Beamer et al. 2012),
    by one gather: top-down gathers the frontier's rows and keeps
    undiscovered neighbors; bottom-up, once the frontier's degree sum
    exceeds the undiscovered nodes' degree sum plus their count, gathers
    the undiscovered nodes' rows and keeps neighbors on the frontier, with
    the edge ends swapped. Both list a level's DAG edges with each child's
    parents ascending and each parent's children ascending (CSR rows are
    sorted, frontiers ascending), so the order-dependent bincount sums, and
    the output bits, do not depend on the direction.

    The leaves cost no per-level work: delta starts at ell and the
    recursion's (1 + delta[child]) stays, so each child w contributes
    omega(w) + delta_s(w). The distance sum weighs d(s, t) by omega(t), and
    every source's delta is scaled by omega(s), 1 for a source without
    leaves.
    """
    n = core.n
    indptr = core.indptr.astype(np.int64)
    indices = core.indices.astype(np.int64)
    deg = core.degrees
    sources = range(lo, min(lo + SOURCE_BLOCK, n))
    omega = 1 + ell

    raw = np.zeros(n)
    dist_sums = np.zeros(len(sources), dtype=np.int64)

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

        while left:
            up = frontier_deg > left_deg + left
            if up:
                rest = (np.flatnonzero(dist == -1) if rest is None
                        else rest[dist[rest] == -1])
            rows, row_counts = (rest, deg[rest]) if up else (frontier, counts)
            flat = gather_rows(indptr, indices, row_counts, rows)
            hit = dist[flat] == (len(levels) if up else -1)
            near, far = np.repeat(rows, row_counts)[hit], flat[hit]
            parents, children = (far, near) if up else (near, far)
            add = np.bincount(children, weights=sigma[parents], minlength=n)
            sigma += add
            levels.append((parents, children))
            frontier = np.flatnonzero(add > 0)
            dist[frontier] = len(levels)
            counts = deg[frontier]
            frontier_deg = int(counts.sum())
            left -= frontier.size
            left_deg -= frontier_deg

        dist_sums[s - lo] = (omega * dist).sum()

        # backward: dependency accumulation from the deepest level inward
        np.copyto(delta, ell)
        for parents, children in reversed(levels):
            coeff = (1.0 + delta[children]) / sigma[children]
            delta += np.bincount(parents, weights=sigma[parents] * coeff,
                                 minlength=n)
        delta[s] = 0.0
        delta *= omega[s]  # s and each of its leaves as source
        raw += delta

    return raw, dist_sums


# ---------------------------------------------------------------------------
# CSV round-trip (node,k,k_nn,b,L,C; floats at full precision)


def write_features_csv(features: NodeFeatures, path: str | Path) -> None:
    rows = [f"{i},{int(features.k[i])},{features.k_nn[i]:.17g},"
            f"{features.b[i]:.17g},{features.L[i]:.17g},{features.C[i]:.17g}\n"
            for i in range(features.n)]
    write_text(path, "node,k,k_nn,b,L,C\n" + "".join(rows))


def read_features_csv(path: str | Path) -> NodeFeatures:
    rows = read_node_csv(path, ("node",) + FEATURE_NAMES,
                         (nonnegative_int,) * 2 + (finite_float,) * 4)
    _, k, *floats = np.array(rows, dtype=np.float64).T.copy()
    return NodeFeatures(k.astype(np.int64), *floats)
