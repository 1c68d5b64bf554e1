"""Growth-model network generators: preferential attachment with triad
formation, and connecting-nearest-neighbor growth via potential links.

Both generators are seeded and deterministic, emit contiguous 0-based ids,
and return simple connected graphs. A preferential-attachment draw that hits
the arriving node or a node it already links is redrawn, so each arriving HK
node gets exactly m edges.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, ConfigError, check
from .graph import Graph, build_graph

_GEN = DEFAULT_CONFIG["generate"]


def generate_hk(n: int, m: int = _GEN["m"], p_t: float = _GEN["p_t"],
                seed: int | None = None) -> Graph:
    """Grow a scale-free, high-clustering network.

    Starts from a clique of m+1 nodes. Each arriving node attaches m edges:
    the first by degree-preferential attachment; each subsequent edge is a
    triad-formation step with probability ``p_t`` (link to a uniformly random
    not-yet-linked neighbor of the previously chosen target), otherwise
    another preferential-attachment step. A triad step with no eligible
    candidate falls back to preferential attachment. A preferential draw
    that hits the newcomer or a node it already links is redrawn: the
    newcomer links at most m - 1 of its >= m + 1 predecessors, each of
    degree >= m, so an eligible stub always exists and every arriving node
    gets exactly m edges.

    Args:
        n: total node count, must satisfy n > m.
        m: edges attached per arriving node, m >= 1.
        p_t: triad-formation probability in [0, 1].
        seed: RNG seed; same seed reproduces the identical edge set.
    """
    check("generate", {"n": n, "m": m, "p_t": p_t})
    if n <= m:
        raise ConfigError(f"generate.n must be > generate.m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)

    # neighbors in link order; no link is ever made twice
    adj: list[list[int]] = [[] for _ in range(n)]
    # the ends of every edge, one entry per unit of degree: a preferential
    # draw is a uniform pick, and entries 2i, 2i + 1 are edge i
    stubs: list[int] = []

    def link(a: int, b: int) -> None:
        adj[a].append(b)
        adj[b].append(a)
        stubs.append(a)
        stubs.append(b)

    for a in range(m + 1):
        for b in range(a + 1, m + 1):
            link(a, b)

    for v in range(m + 1, n):
        prev: int | None = None
        linked = adj[v]
        for _ in range(m):
            target: int | None = None
            if prev is not None and rng.random() < p_t:
                cands = [w for w in adj[prev] if w != v and w not in linked]
                if cands:
                    target = cands[rng.integers(len(cands))]
            while target is None:
                cand = stubs[rng.integers(len(stubs))]
                if cand != v and cand not in linked:
                    target = cand
            link(v, target)
            prev = target

    return build_graph(n, np.array(stubs, dtype=np.int64).reshape(-1, 2))


def generate_cnn(n: int, u: float = _GEN["u"], seed: int | None = None) -> Graph:
    """Grow an assortative scale-free network via potential-link conversion.

    Starts from a single node. Each step either (with probability 1-u)
    introduces a new node, links it to a uniformly random existing node and
    records a potential link to each neighbor of that node, or (with
    probability u) converts one uniformly random pending potential link into
    a real edge. Growth stops once n nodes exist; mean degree tends to
    2/(1-u).

    Args:
        n: total node count, >= 1 and < 2**31.
        u: conversion probability, strictly inside (0, 1).
        seed: RNG seed; same seed reproduces the identical edge set.
    """
    check("generate", {"n": n, "u": u})
    rng = np.random.default_rng(seed)

    adj: list[dict[int, None]] = [{} for _ in range(n)]  # ordered neighbor sets
    edges: list[tuple[int, int]] = []
    potential: list[tuple[int, int]] = []
    nodes = 1

    def link(a: int, b: int) -> None:
        adj[a][b] = adj[b][a] = None
        edges.append((a, b))

    while nodes < n:
        if rng.random() < u:
            if not potential:
                continue  # nothing pending; the step is silently skipped
            i = int(rng.integers(len(potential)))
            pair = potential[i]
            potential[i] = potential[-1]  # swap-pop keeps selection O(1)
            potential.pop()
            a, b = pair
            if b not in adj[a]:
                link(a, b)
        else:
            w = nodes
            t = int(rng.integers(nodes))
            # potential links pair the newcomer with the target's current
            # neighborhood, captured before the new edge exists
            potential.extend((w, x) for x in adj[t])
            link(w, t)
            nodes += 1

    del adj, potential  # freed before the CSR build, the generator's memory peak
    return build_graph(n, edges)
