"""Per-node structural features: degree, average neighbor degree, normalized
betweenness, average shortest-path length, and local clustering coefficient.

:func:`compute_all` is the one entry point. Betweenness and path lengths
come from one Brandes-style pass per source (Brandes 2001), vectorized over
BFS levels, each level scanned top-down from the frontier or bottom-up from
the undiscovered nodes, whichever touches fewer edges. The pass runs on
each biconnected block of the graph on its own, found by one iterative
depth-first search (Hopcroft & Tarjan 1973). In a block each node counts
as its reach: itself plus everything hanging off it outside the block.
The pairs that a cut vertex separates are counted in closed form, and the
distance sums are rerooted along the block-cut tree, so the values are
exact (Puzis et al. 2012). A leaf is a 2-node block. Every node needs an
average path length, so the depth-first search rejects a disconnected
graph before the pass, naming node 0 and the lowest node with no path from
it. Sources run in units of up to 512 per block on forked worker
processes, so exact values stay tractable at 10^4 nodes.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
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
    raw, dist_sums = _brandes_all_sources(graph)
    return NodeFeatures(
        k=graph.degrees.copy(),
        k_nn=compute_avg_neighbor_degree(graph),
        b=raw / ((graph.n - 1) * (graph.n - 2)),
        L=dist_sums / (graph.n - 1),
        C=compute_clustering(graph),
    )


# ---------------------------------------------------------------------------
# Brandes accumulation, one vectorized BFS per source, per biconnected block

# Sources per work unit. The units depend only on the graph, and their
# results are summed in unit order, so the output bytes do not depend on the
# worker count.
SOURCE_BLOCK = 512


def _brandes_all_sources(graph: Graph):
    """Returns (raw betweenness, per-node distance sums) of a connected graph.

    raw[i] accumulates the Brandes dependency of every source on i, i.e. each
    unordered pair is counted twice. dist_sums[i] is sum_j d(i, j), an
    integer.

    The pass runs on each biconnected block on its own (Puzis et al. 2012;
    Sariyuce et al. 2013). The shortest paths between two nodes all cross
    the same blocks, entering and leaving each through a cut vertex, so in
    block B node v stands for itself and everything hanging off it outside
    B: its reach r_B(v). A block's reaches sum to n. With ell = r_B - 1 the
    values are exact:

    - raw(v) = sum over v's blocks B of sum_{s in B, s != v} r_B(s)
      delta_s(v), where delta_s weighs target t by r_B(t) and starts at
      ell(v). That start adds the pairs from the nodes of s to the nodes
      hanging off v, in closed form; over v's blocks these are all the
      pairs that v cuts apart. A leaf is a 2-node block whose other node
      has reach n - 1: the leaf gains 0 and its neighbor n - 2;
    - dist_sum(v) = W_B(v) + K_B in each block B that holds v, where
      W_B(v) = sum_{t in B} r_B(t) d(v, t) comes from the block's BFS from
      v, and K_B sums the distances from the nodes of B into what hangs
      off them. K_B is never formed: node 0's distance sum is the sum over
      blocks of W_B at the block's head (its cut vertex towards node 0),
      and a cut vertex's sum is the same from each of its blocks, so one
      pass down the block-cut tree reroots it onto every node.

    Each block's sources split into units of up to SOURCE_BLOCK, and
    consecutive units share a job up to SOURCE_BLOCK sources in all, so
    that thousands of bridges do not cost a round trip to a worker each.
    A bridge, a 2-node block, takes its closed form in its own unit, and
    the units are summed in order, so the bits stay the kernel's. The jobs
    run through :func:`fork_map`, on as many forked workers as the
    NETSOM_THREADS cap allows; the workers inherit the blocks through the
    fork rather than a pickle.
    """
    member, start, head_at, union, ell = _biconnected_blocks(graph)
    spans = list(zip(start[:-1].tolist(), start[1:].tolist()))
    jobs: list[list[tuple[int, int, int]]] = []
    room = 0
    for a, z in spans:
        for lo in range(0, z - a, SOURCE_BLOCK):
            count = min(SOURCE_BLOCK, z - a - lo)
            if count > room:
                jobs.append([])
                room = SOURCE_BLOCK
            jobs[-1].append((a, z, lo))
            room -= count

    def run(job):
        results = []
        for a, z, lo in job:
            if z - a == 2:
                results.append(_brandes_bridge(ell[a:z]))
                continue
            rows = union.indptr[a:z + 1]
            block = Graph(z - a, rows - rows[0],
                          union.indices[rows[0]:rows[-1]] - a)
            results.append(_brandes_block(block, ell[a:z], lo))
        return results

    raw = np.zeros(graph.n)
    w = np.empty(member.size, dtype=np.int64)  # W_B(v) at each (B, v)
    for job, results in zip(jobs, fork_map(run, jobs)):  # in unit order
        for (a, z, lo), (part, sums) in zip(job, results):
            raw[member[a:z]] += part
            w[a + lo:a + lo + sums.size] = sums
    dist_sums = np.empty(graph.n, dtype=np.int64)
    dist_sums[0] = w[head_at].sum()
    # each head's sum is known before its blocks are
    for (a, z), h in zip(spans[::-1], head_at[::-1].tolist()):
        dist_sums[member[a:z]] = w[a:z] - w[h] + dist_sums[member[h]]
    return raw, dist_sums


def _biconnected_blocks(graph: Graph):
    """The biconnected blocks of a connected graph, side by side in one
    graph: (member, start, head_at, union, ell).

    Block b is the nodes start[b]..start[b+1]-1 of ``union``, no edge of
    which leaves the block, in the order of their ids member[...]; blocks
    come children first along the block-cut tree from node 0, and block
    b's head, its cut vertex towards node 0 (or node 0), is node
    head_at[b]. ell is each node's reach less one. An edge belongs to the
    block of its deeper end in the search of :func:`_depth_first_blocks`.
    A head's reach is n less the size of the subtree below it in its block;
    any other node's is one plus the subtree sizes of the blocks it heads.
    """
    n = graph.n
    disc, of, heads, sizes = _depth_first_blocks(graph)
    nb = heads.size
    # (block, node) keys, ascending: every node but node 0 in the block of
    # its parent edge, and each head in its block
    keys = np.sort(np.concatenate([of[1:] * n + np.arange(1, n),
                                   np.arange(nb) * n + heads]))
    member_of, member = np.divmod(keys, n)
    start = np.searchsorted(member_of, np.arange(nb + 1))
    hung = np.bincount(heads, weights=sizes, minlength=n).astype(np.int64)
    ell = np.where(member == heads[member_of], n - 1 - sizes[member_of],
                   hung[member])
    edges = graph.edge_array()
    deeper = np.where(disc[edges[:, 0]] > disc[edges[:, 1]],
                      edges[:, 0], edges[:, 1])
    union = build_graph(keys.size, np.searchsorted(
        keys, of[deeper][:, None] * n + edges))
    return (member, start, np.searchsorted(keys, np.arange(nb) * n + heads),
            union, ell)


def _depth_first_blocks(graph: Graph):
    """One depth-first search from node 0 (Hopcroft & Tarjan 1973), on an
    explicit stack so that no graph size meets the recursion limit.

    It pops a block each time a child v returns to a node u that no back
    edge from v's subtree rises above: u is the block's head, its cut
    vertex towards node 0 (or node 0), and the block's other nodes are the
    pending ones from v on. Returns (disc, of, heads, sizes): each node's
    discovery number and the block of its edge to its parent (-1 for node
    0), and each block's head and the size of v's subtree. A node left
    undiscovered has no path from node 0: ValueError names the lowest.
    """
    n = graph.n
    # machine words, where a list would hold an int object per entry
    indptr = array("q", graph.indptr.astype(np.int64, copy=False).tobytes())
    indices = array("i", graph.indices.astype(np.intc, copy=False).tobytes())
    nxt = indptr[:-1]
    disc, low, size, pos, of = (array("q", [x]) * n for x in (-1, 0, 1, 0, -1))
    heads: list[int] = []
    sizes: list[int] = []
    path, pending = [0], []
    disc[0] = 0
    found = 1
    while path:
        v = path[-1]
        i, end, lowest = nxt[v], indptr[v + 1], low[v]
        while i < end:
            w = indices[i]
            i += 1
            if disc[w] < 0:
                break
            # the edge to v's parent u can only lower low[v] to disc[u],
            # which leaves the test low[v] >= disc[u] below as it is
            if disc[w] < lowest:
                lowest = disc[w]
        else:
            w = -1
        nxt[v], low[v] = i, lowest
        if w >= 0:  # a tree edge down to an undiscovered neighbor
            disc[w] = low[w] = found
            found += 1
            pos[w] = len(pending)
            path.append(w)
            pending.append(w)
            continue
        path.pop()
        if not path:
            break
        u = path[-1]
        size[u] += size[v]
        low[u] = min(low[u], low[v])
        if low[v] >= disc[u]:
            for x in pending[pos[v]:]:
                of[x] = len(heads)
            del pending[pos[v]:]
            heads.append(u)
            sizes.append(size[v])
    if found < n:
        raise ValueError(f"graph is disconnected: no path between nodes 0 "
                         f"and {disc.index(-1)}")
    return (np.array(disc), np.array(of), np.array(heads, dtype=np.int64),
            np.array(sizes, dtype=np.int64))


def _brandes_bridge(ell: np.ndarray):
    """What :func:`_brandes_block` returns for a 2-node block {u, v}, in
    closed form: raw = (omega(v) ell(u), omega(u) ell(v)) and W = (omega(v),
    omega(u)), with omega = 1 + ell. The kernel forms the same integer
    products in float64, so the bits are the same."""
    swap = (1 + ell)[::-1]
    return np.multiply(ell, swap, dtype=np.float64), swap


def _brandes_block(block: Graph, ell: np.ndarray, lo: int):
    """Reach-weighted raw betweenness within one biconnected block, summed
    over its sources lo..lo+SOURCE_BLOCK-1, and those sources' weighted
    distance sums W_B (see :func:`_brandes_all_sources`); ell is each
    node's reach less one.

    Each BFS level is scanned from the cheaper side (Beamer et al. 2012),
    by one gather: top-down gathers the frontier's rows and keeps
    undiscovered neighbors; bottom-up, once the frontier's degree sum
    exceeds the undiscovered nodes' degree sum plus their count, gathers
    the undiscovered nodes' rows and keeps neighbors on the frontier, with
    the edge ends swapped. Both list a level's DAG edges with each child's
    parents ascending and each parent's children ascending (CSR rows are
    sorted, frontiers ascending), so the order-dependent bincount sums, and
    the output bits, do not depend on the direction. A level's DAG edges
    are selected by the index array of its hits, not by a boolean mask:
    both pick the same entries in the same order, but numpy's masked
    indexing costs several times a nonzero and two integer takes.

    On a block of a few thousand nodes a level gathers a few thousand
    entries, so the kernel is bound by the number of numpy calls, not by
    the data they move: it calls the ndarray methods (nonzero, repeat,
    cumsum), which cost about half their np.* wrappers; takes each hit's
    row from one per-slot owner array; keeps each level's sigma[parents]
    for the backward pass; and writes sigma on the new frontier only (a
    node's sigma is final once its level is done, and no node's is read
    before the BFS reaches it). The first level is s's own row, read as a
    slice: each neighbor has sigma 1, and that level's backward step
    would add only to delta(s), which is zeroed, so it is not recorded.
    2-node blocks never get here (see :func:`_brandes_bridge`).

    What hangs off the block costs no per-level work: delta starts at ell
    and the recursion's (1 + delta[child]) stays, so each child w
    contributes its reach omega(w) + delta_s(w). The distance sum weighs
    d(s, t) by omega(t), and every source's delta is scaled by omega(s), 1
    for a node with nothing hanging off it.
    """
    n = block.n
    indptr = block.indptr.astype(np.int64)
    indices = block.indices.astype(np.int64)
    deg = block.degrees
    owner = np.arange(n).repeat(deg)  # the row of each CSR slot
    sources = range(lo, min(lo + SOURCE_BLOCK, n))
    omega = 1 + ell

    raw = np.zeros(n)
    dist_sums = np.zeros(len(sources), dtype=np.int64)

    dist = np.empty(n, dtype=np.int32)
    sigma = np.empty(n)  # set on each node as the BFS reaches it
    delta = np.empty(n)

    for s in sources:
        dist.fill(-1)
        dist[s] = 0
        # distance 1: s's row, each node on one shortest path
        frontier = indices[indptr[s]:indptr[s + 1]]
        dist[frontier] = 1
        sigma[frontier] = 1.0
        counts = deg[frontier]
        frontier_deg = int(counts.sum())
        # undiscovered nodes (dist -1): their count and degree sum
        left = n - 1 - frontier.size
        left_deg = indices.size - frontier.size - frontier_deg
        # the BFS DAG from distance 1 on, one (parents, children,
        # sigma[parents]) per level; parents at distance len(levels) + 1
        levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        while left:
            up = frontier_deg > left_deg + left
            rows = (dist == -1).nonzero()[0] if up else frontier
            slots = gather_rows(indptr, deg[rows] if up else counts, rows)
            flat = indices[slots]
            hit = (dist[flat] == (len(levels) + 1 if up else -1)).nonzero()[0]
            near, far = owner[slots[hit]], flat[hit]
            parents, children = (far, near) if up else (near, far)
            weights = sigma[parents]
            add = np.bincount(children, weights=weights, minlength=n)
            levels.append((parents, children, weights))
            frontier = (add > 0).nonzero()[0]
            sigma[frontier] = add[frontier]
            dist[frontier] = len(levels) + 1
            counts = deg[frontier]
            frontier_deg = int(counts.sum())
            left -= frontier.size
            left_deg -= frontier_deg

        dist_sums[s - lo] = omega.dot(dist)

        # backward: dependency accumulation from the deepest level inward
        np.copyto(delta, ell)
        for parents, children, weights in reversed(levels):
            coeff = (1.0 + delta[children]) / sigma[children]
            delta += np.bincount(parents, weights=weights * coeff, minlength=n)
        delta[s] = 0.0
        delta *= omega[s]  # s and each of its leaves as source
        raw += delta

    return raw, dist_sums


# ---------------------------------------------------------------------------
# CSV round-trip (node,k,k_nn,b,L,C; floats at full precision)


def write_features_csv(features: NodeFeatures, path: str | Path) -> str:
    """The features table; returns the sha256 of the bytes written."""
    rows = [f"{i},{int(features.k[i])},{features.k_nn[i]:.17g},"
            f"{features.b[i]:.17g},{features.L[i]:.17g},{features.C[i]:.17g}\n"
            for i in range(features.n)]
    return write_text(path, "node,k,k_nn,b,L,C\n" + "".join(rows))


def read_features_csv(path: str | Path) -> NodeFeatures:
    rows = read_node_csv(path, ("node",) + FEATURE_NAMES,
                         (nonnegative_int,) * 2 + (finite_float,) * 4)
    _, k, *floats = np.array(rows, dtype=np.float64).T.copy()
    return NodeFeatures(k.astype(np.int64), *floats)
