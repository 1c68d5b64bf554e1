"""Asynchronous SIR epidemic on a network.

One sweep performs N random agent picks with replacement; a picked
susceptible becomes infectious with probability min(1, lambda*n_I*dt) where
n_I counts its currently infectious neighbors at pick time, a picked
infectious recovers with probability min(1, mu*dt), and removed agents never
change. Time advances by dt per sweep and the run stops when no infectious
agents remain.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_CONFIG
from .graph import Graph
from .simtrace import SimTrace
from .som import CellAssignment

S, I, R = 0, 1, 2
STATE_NAMES = ("S", "I", "R")
_SIR = DEFAULT_CONFIG["sir"]


def init_sir(graph: Graph, n_initial: int, seed=None) -> np.ndarray:
    """Per-agent int8 states: all susceptible except ``n_initial`` distinct
    agents drawn uniformly, who start infectious."""
    if not 1 <= n_initial <= graph.n:
        raise ValueError(f"n_initial must be in [1, {graph.n}]")
    rng = np.random.default_rng(seed)
    states = np.zeros(graph.n, dtype=np.int8)
    infected = rng.choice(graph.n, size=n_initial, replace=False)
    states[infected] = I
    return states


def _sweep(states: list[int], nbrs: list[list[int]], inf_cnt: list[int],
           picks: list[int], draws: list[float], lam_dt: float,
           mu_dt: float) -> tuple[int, int]:
    """One asynchronous sweep over pre-drawn picks and uniforms.

    Mutates ``states`` and the incremental infectious-neighbor counts in
    place; returns (infections, recoveries). A uniform draw u in [0,1)
    compared against lam*n_I*dt realizes the clamped probability exactly.
    """
    infections = 0
    recoveries = 0
    for a, u in zip(picks, draws):
        st = states[a]
        if st == 0:
            c = inf_cnt[a]
            if c and u < lam_dt * c:
                states[a] = 1
                infections += 1
                for w in nbrs[a]:
                    inf_cnt[w] += 1
        elif st == 1:
            if u < mu_dt:
                states[a] = 2
                recoveries += 1
                for w in nbrs[a]:
                    inf_cnt[w] -= 1
    return infections, recoveries


def run_sir(graph: Graph, assignment: CellAssignment,
            lam: float = _SIR["lambda"], mu: float = _SIR["mu"],
            dt: float = _SIR["dt"], n_initial: int = _SIR["initial"],
            seed=None,
            snapshot_every: float = _SIR["snapshot_every"]) -> SimTrace:
    """Run sweeps until no infectious agents remain; record per-cell counts.

    Snapshots fall at t=0, at the first sweep past each multiple of
    ``snapshot_every``, and always at the terminal time. Any positive, finite
    ``snapshot_every`` works; one at or below dt records every sweep.
    The master seed splits into independent initial-infection and dynamics
    streams, so the whole trace is reproducible from (graph, seed, params).
    """
    if assignment.n != graph.n:
        raise ValueError("assignment does not cover the graph's nodes")
    if not all(map(math.isfinite, (lam, mu, dt, snapshot_every))):
        raise ValueError("lambda, mu, dt and snapshot_every must be finite")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if mu <= 0 or dt <= 0:
        raise ValueError("termination requires mu > 0 and dt > 0")
    if snapshot_every <= 0:
        raise ValueError("snapshot_every must be positive")

    init_seed, step_seed = np.random.SeedSequence(seed).spawn(2)
    states0 = init_sir(graph, n_initial, seed=init_seed)
    rng = np.random.default_rng(step_seed)

    n = graph.n
    idx, ptr = graph.indices.tolist(), graph.indptr.tolist()
    nbrs = [idx[ptr[i]:ptr[i + 1]] for i in range(n)]
    states = states0.tolist()
    src, dst = graph.directed_edges()
    inf_cnt = np.bincount(src[states0[dst] == I], minlength=n).tolist()
    n_infected = n_initial
    lam_dt = lam * dt
    mu_dt = mu * dt

    cells = assignment.linear()
    trace = SimTrace(state_names=STATE_NAMES, width=assignment.width,
                     height=assignment.height, time_label="t")
    trace.record(0.0, states, cells)
    every = max(snapshot_every, dt)  # same snapshots; keeps t / every finite
    due = 1.0  # the multiple of every whose passing takes the next snapshot

    # draws come in (chunk, n) blocks, one row per sweep; the block size is a
    # function of n alone, so it is part of the deterministic stream layout
    chunk = max(1, min(64, 65536 // n))
    sweep = 0
    while n_infected > 0:
        row = sweep % chunk
        if row == 0:
            picks = rng.integers(0, n, size=(chunk, n)).tolist()
            draws = rng.random(size=(chunk, n)).tolist()
        infections, recoveries = _sweep(states, nbrs, inf_cnt, picks[row],
                                        draws[row], lam_dt, mu_dt)
        n_infected += infections - recoveries
        sweep += 1
        t = sweep * dt  # exact product avoids float accumulation drift
        passed = (t + 1e-9) / every  # multiples of every passed
        if passed >= due or n_infected == 0:  # the terminal one always
            trace.record(t, states, cells)
            due = passed // 1 + 1
    return trace
