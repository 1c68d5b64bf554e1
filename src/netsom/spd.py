"""Spatial prisoner's dilemma with synchronous imitate-the-wealthiest updates.

Each round every agent plays one game against each neighbor and accumulates
payoffs from the matrix M(C,C)=1, M(C,D)=0, M(D,C)=T, M(D,D)=eps. All agents
then update simultaneously: an agent keeps its strategy unless some neighbor
earned strictly more, in which case it copies the strategy of the
highest-payoff neighbor (ties among those broken by smallest node id, or
uniformly at random in the "random" tie mode).
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_CONFIG, check
from .graph import Graph
from .simtrace import SimTrace
from .som import CellAssignment

C, D = 0, 1
STATE_NAMES = ("C", "D")
_SPD = DEFAULT_CONFIG["spd"]


def init_spd(graph: Graph, seed=None) -> np.ndarray:
    """Per-agent int8 strategies: an independent fair coin per agent."""
    rng = np.random.default_rng(seed)
    return (rng.random(graph.n) < 0.5).astype(np.int8)  # True -> D


def play_round(graph: Graph, strategies: np.ndarray, T: float = _SPD["T"],
               eps: float = _SPD["eps"]) -> np.ndarray:
    """Accumulated payoff per agent from one game against each neighbor."""
    check("spd", {"T": T, "eps": eps})
    n = graph.n
    src, dst = graph.directed_edges()
    coop = strategies == C
    n_coop = np.bincount(src, weights=coop[dst], minlength=n)  # exact counts
    deg = graph.degrees.astype(np.float64)
    return np.where(coop, n_coop, T * n_coop + eps * (deg - n_coop))


def update_strategies(graph: Graph, strategies: np.ndarray,
                      payoffs: np.ndarray, tie: str = _SPD["tie"],
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Synchronous imitation of the wealthiest neighbor.

    Agents whose own payoff is >= every neighbor's keep their strategy;
    isolated agents always keep theirs. An adopting agent copies its
    rank-th neighbor, in id order, among those at the row maximum: rank 0
    under "min_id", else one ``rng.integers(0, counts)`` in agent id order.
    """
    check("spd", {"tie": tie})
    n = graph.n
    deg = graph.degrees
    indptr, indices = graph.indptr, graph.indices
    flat = payoffs[indices]
    new = strategies.copy()

    # reduce only over nonempty rows; their starts are strictly increasing,
    # which keeps reduceat segments aligned with adjacency rows
    nonempty = np.flatnonzero(deg > 0)
    nbr_max = np.full(n, -np.inf)
    nbr_max[nonempty] = np.maximum.reduceat(flat, indptr[nonempty])
    adopt = np.flatnonzero(payoffs < nbr_max)

    # hits[k]: adjacency slots before k that hold their row's maximum
    hits = np.zeros(flat.size + 1, dtype=np.int64)
    np.cumsum(flat == np.repeat(nbr_max, deg), out=hits[1:])
    before = hits[indptr[adopt]]
    if tie == "min_id":
        rank = 0
    elif rng is None:
        raise ValueError("tie='random' needs an rng")
    else:
        rank = rng.integers(0, hits[indptr[adopt + 1]] - before)
    chosen = indices[np.searchsorted(hits, before + rank + 1) - 1]
    new[adopt] = strategies[chosen]
    return new


def run_spd(graph: Graph, assignment: CellAssignment, T: float = _SPD["T"],
            eps: float = _SPD["eps"], seed=None,
            max_rounds: int = _SPD["max_rounds"],
            tie: str = _SPD["tie"]) -> SimTrace:
    """Alternate play/update until a fixed point or ``max_rounds``.

    The trace records per-cell C/D counts for round 0 and after every update,
    and ``trace.fixed_point`` tells whether the last round changed no
    strategy (which can happen on round ``max_rounds`` itself). Under
    "min_id" ties, once the strategies repeat an earlier round's, the
    remaining rounds up to ``max_rounds`` copy the counts of the cycle
    rather than play it again; ``fixed_point`` stays False for a cycle
    longer than one round.
    The only randomness is the initial strategy draw (plus tie resolution in
    the "random" tie mode); the trajectory is otherwise deterministic.
    """
    check("spd", {"max_rounds": max_rounds})
    if assignment.n != graph.n:
        raise ValueError("assignment does not cover the graph's nodes")

    init_seed, tie_seed = np.random.SeedSequence(seed).spawn(2)
    strategies = init_spd(graph, seed=init_seed)
    tie_rng = np.random.default_rng(tie_seed)

    cells = assignment.linear()
    trace = SimTrace(state_names=STATE_NAMES, width=assignment.width,
                     height=assignment.height, time_label="round",
                     fixed_point=False)
    trace.record(0.0, strategies, cells)
    # under "min_id" a round depends on the strategies alone, so from the
    # first repeated state on, the run replays the cycle that state closes
    seen = {np.packbits(strategies).tobytes(): 0}
    for rnd in range(1, max_rounds + 1):
        payoffs = play_round(graph, strategies, T=T, eps=eps)
        nxt = update_strategies(graph, strategies, payoffs,
                                tie=tie, rng=tie_rng)
        trace.record(float(rnd), nxt, cells)
        if np.array_equal(nxt, strategies):
            trace.fixed_point = True
            break
        strategies = nxt
        if tie == "min_id":
            period = rnd - seen.setdefault(np.packbits(nxt).tobytes(), rnd)
            if period:
                for later in range(rnd + 1, max_rounds + 1):
                    trace.append(float(later), trace.counts[later - period])
                break
    return trace
