import numpy as np
import pytest

import netsom.spd
from netsom import build_graph, init_spd, play_round, run_spd, update_strategies
from netsom.spd import C, D
from netsom.som import CellAssignment
from conftest import random_connected_graph


def one_cell_assignment(n):
    return CellAssignment(width=1, height=1,
                          x=np.zeros(n, dtype=np.int64),
                          y=np.zeros(n, dtype=np.int64))


def reference_update(graph, strategies, payoffs, order):
    """Sequential re-statement of the synchronous rule: processing order must
    not matter because every decision reads only round-r payoffs."""
    new = strategies.copy()
    for i in order:
        nbrs = list(graph.neighbors(i))
        if not nbrs:
            continue
        best = max(payoffs[j] for j in nbrs)
        if payoffs[i] >= best:
            continue
        winner = min(j for j in nbrs if payoffs[j] == best)
        new[i] = strategies[winner]
    return new


class TestInit:
    def test_fair_coin(self):
        g = random_connected_graph(np.random.default_rng(0), 10000)
        st = init_spd(g, seed=1)
        assert st.dtype == np.int8
        n_c = int((st == C).sum())
        assert abs(n_c - 5000) < 3 * 50  # 3 sigma for Bernoulli(1/2)

    def test_deterministic(self):
        g = random_connected_graph(np.random.default_rng(1), 100)
        assert np.array_equal(init_spd(g, seed=2), init_spd(g, seed=2))


class TestPlayRound:
    def test_all_cooperators_earn_degree(self):
        g = random_connected_graph(np.random.default_rng(3), 40)
        s = np.full(g.n, C, dtype=np.int8)
        p = play_round(g, s, T=1.5, eps=0.0)
        np.testing.assert_array_equal(p, g.degrees.astype(float))

    def test_cd_edge_payoffs(self):
        g = build_graph(2, [(0, 1)])
        s = np.array([C, D], dtype=np.int8)
        p = play_round(g, s, T=1.5, eps=0.0)
        assert p.tolist() == [0.0, 1.5]

    def test_lone_defector_among_cooperators(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        s = np.array([D, C, C, C, C], dtype=np.int8)
        p = play_round(g, s, T=1.5, eps=0.0)
        assert p[0] == 6.0

    def test_eps_pays_defector_pairs(self):
        g = build_graph(2, [(0, 1)])
        s = np.array([D, D], dtype=np.int8)
        p = play_round(g, s, T=1.5, eps=0.25)
        assert p.tolist() == [0.25, 0.25]

    def test_dilemma_ordering_enforced(self):
        g = build_graph(2, [(0, 1)])
        s = np.array([C, D], dtype=np.int8)
        with pytest.raises(ValueError):
            play_round(g, s, T=0.9)
        with pytest.raises(ValueError):
            play_round(g, s, T=1.5, eps=1.0)
        with pytest.raises(ValueError):
            play_round(g, s, T=float("inf"))


class TestUpdate:
    def test_cd_edge_becomes_dd(self):
        g = build_graph(2, [(0, 1)])
        s = np.array([C, D], dtype=np.int8)
        p = play_round(g, s, T=1.5, eps=0.0)
        assert update_strategies(g, s, p).tolist() == [D, D]

    def test_equal_payoffs_keep(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # 2-regular
        s = np.full(4, C, dtype=np.int8)
        p = play_round(g, s)
        assert update_strategies(g, s, p).tolist() == [C, C, C, C]

    def test_tie_breaks_to_smallest_id(self):
        # node 5 sees equally wealthy strict betters 3 (C) and 7 (D)
        g = build_graph(8, [(5, 3), (5, 7), (3, 0), (7, 0)])
        s = np.zeros(8, dtype=np.int8)
        s[7] = D
        s[5] = D
        payoffs = np.zeros(8)
        payoffs[3] = payoffs[7] = 2.0
        out = update_strategies(g, s, payoffs)
        assert out[5] == s[3] == C

    def test_matches_sequential_reference_any_order(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(5, 30)))
            s = (rng.random(g.n) < 0.5).astype(np.int8)
            p = play_round(g, s, T=1.5, eps=0.0)
            got = update_strategies(g, s, p)
            for _ in range(3):
                order = rng.permutation(g.n)
                assert np.array_equal(got, reference_update(g, s, p, order))

    def test_isolated_node_keeps_strategy(self):
        g = build_graph(3, [(0, 1)])
        s = np.array([C, D, C], dtype=np.int8)
        p = play_round(g, s)
        out = update_strategies(g, s, p)
        assert out[2] == C

    def test_random_tie_mode(self):
        g = build_graph(8, [(5, 3), (5, 7), (3, 0), (7, 0)])
        s = np.zeros(8, dtype=np.int8)
        s[7] = D
        s[5] = D
        payoffs = np.zeros(8)
        payoffs[3] = payoffs[7] = 2.0
        picks = set()
        for seed in range(20):
            out = update_strategies(g, s, payoffs, tie="random",
                                    rng=np.random.default_rng(seed))
            picks.add(int(out[5]))
        assert picks == {C, D}  # both candidates reachable
        with pytest.raises(ValueError):
            update_strategies(g, s, payoffs, tie="random")


def start_all(monkeypatch, strategy):
    """Make run_spd start from every agent playing ``strategy``."""
    monkeypatch.setattr(netsom.spd, "init_spd",
                        lambda graph, seed: np.full(graph.n, strategy, dtype=np.int8))


class TestRun:
    def test_all_c_fixed_point_two_snapshots(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(5), 40)
        start_all(monkeypatch, C)
        trace = run_spd(g, one_cell_assignment(g.n), seed=0)
        assert len(trace.times) == 2
        assert np.array_equal(trace.counts[0], trace.counts[1])
        assert trace.counts[0][0].sum() == g.n  # everyone C
        assert trace.fixed_point

    def test_all_d_fixed_point(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(6), 40)
        start_all(monkeypatch, D)
        trace = run_spd(g, one_cell_assignment(g.n), seed=0)
        assert len(trace.times) == 2
        assert trace.counts[0][1].sum() == g.n

    def test_two_node_trajectory(self):
        g = build_graph(2, [(0, 1)])
        a = one_cell_assignment(2)
        # find a seed whose run starts from one C and one D
        for seed in range(50):
            trace = run_spd(g, a, seed=seed)
            if trace.totals(0).tolist() == [1, 1]:
                break
        cd = [(int(c[0].sum()), int(c[1].sum())) for c in trace.counts]
        assert cd == [(1, 1), (0, 2), (0, 2)]  # (C,D) -> (D,D) -> fixed
        assert trace.fixed_point

    def test_strategy_closure(self):
        # a strategy absent from round r never reappears
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, 30)
            trace = run_spd(g, one_cell_assignment(g.n),
                            seed=int(rng.integers(1000)), max_rounds=30)
            seen_gone = {C: False, D: False}
            for counts in trace.counts:
                for s in (C, D):
                    total = counts[s].sum()
                    if seen_gone[s]:
                        assert total == 0
                    elif total == 0:
                        seen_gone[s] = True

    def test_deterministic(self):
        g = random_connected_graph(np.random.default_rng(8), 60)
        a = one_cell_assignment(g.n)
        t1 = run_spd(g, a, seed=9)
        t2 = run_spd(g, a, seed=9)
        assert t1.times == t2.times
        assert all(np.array_equal(x, y) for x, y in zip(t1.counts, t2.counts))

    def test_cell_counts_sum_to_cell_population(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        a = CellAssignment(width=2, height=1,
                           x=np.array([0, 0, 0, 1, 1, 1], dtype=np.int64),
                           y=np.zeros(6, dtype=np.int64))
        trace = run_spd(g, a, seed=10, max_rounds=20)
        for counts in trace.counts:
            assert counts.sum(axis=0).tolist() == [3, 3]

    def test_max_rounds_bounds_cycles(self):
        g = random_connected_graph(np.random.default_rng(11), 50)
        trace = run_spd(g, one_cell_assignment(g.n), seed=12, max_rounds=7)
        assert trace.terminal_time <= 7

    def test_fixed_point_on_the_last_allowed_round(self, monkeypatch):
        # a run that settles on round r is a fixed point with max_rounds=r
        # too, and is cut short of one with max_rounds=r-1
        g = random_connected_graph(np.random.default_rng(13), 60)
        a = one_cell_assignment(g.n)
        free = run_spd(g, a, seed=14)
        rounds = int(free.terminal_time)
        assert free.fixed_point and rounds >= 2
        capped = run_spd(g, a, seed=14, max_rounds=rounds)
        assert capped.times == free.times and capped.fixed_point
        cut = run_spd(g, a, seed=14, max_rounds=rounds - 1)
        assert cut.terminal_time == rounds - 1 and not cut.fixed_point
        start_all(monkeypatch, C)
        only = run_spd(g, a, max_rounds=1)
        assert only.terminal_time == 1 and only.fixed_point
