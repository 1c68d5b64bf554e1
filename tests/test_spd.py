import numpy as np
import pytest

import netsom.spd
from netsom import (build_graph, generate_cnn, generate_hk, init_spd,
                    play_round, run_spd, update_strategies)
from netsom.spd import C, D
from netsom.som import CellAssignment
from conftest import random_connected_graph
from oracles import rounds_run_spd


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

    def test_mixed_matches_per_game_sum(self):
        """Every agent's payoff is the sum of its games, one per neighbor
        (T and eps are dyadic, so any summation order is exact)."""
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 60)
        pay = {(C, C): 1.0, (C, D): 0.0, (D, C): 1.5, (D, D): 0.25}
        for share in (0.1, 0.5, 0.9):
            s = (rng.random(g.n) < share).astype(np.int8)
            p = play_round(g, s, T=1.5, eps=0.25)
            assert p.tolist() == [sum(pay[s[i], s[j]] for j in g.neighbors(i))
                                  for i in range(g.n)]

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

    def test_edgeless_graph_keeps_every_strategy(self):
        g = build_graph(3, [])
        s = np.array([C, D, C], dtype=np.int8)
        out = update_strategies(g, s, play_round(g, s))
        assert out.tolist() == s.tolist() and out is not s

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
        with pytest.raises(ValueError):  # an edgeless graph too
            update_strategies(build_graph(8, []), s, payoffs, tie="random")


def loop_random_update(graph, strategies, payoffs, rng):
    """The random tie mode as a per-agent loop: each adopting agent, in
    ascending id, copies one of its neighbors at the row maximum drawn with
    ``rng.integers(best.size)``."""
    new = strategies.copy()
    for i in range(graph.n):
        row = graph.neighbors(i)
        if row.size == 0 or payoffs[i] >= payoffs[row].max():
            continue
        best = row[payoffs[row] == payoffs[row].max()]
        new[i] = strategies[best[rng.integers(best.size)]]
    return new


class TestRandomTieDifferential:
    """The vectorized random tie mode against the per-agent loop: the same
    strategies, and the same generator state afterwards."""

    @staticmethod
    def check(g, s, payoffs, seed):
        want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
        want = loop_random_update(g, s, payoffs, want_rng)
        got = update_strategies(g, s, payoffs, tie="random", rng=got_rng)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_integer_payoffs_on_random_graphs(self):
        rng = np.random.default_rng(21)
        for trial in range(60):
            g = random_connected_graph(rng, int(rng.integers(2, 60)))
            s = (rng.random(g.n) < 0.5).astype(np.int8)
            # few payoff values, so most rows tie at their maximum
            payoffs = rng.integers(0, 3, g.n).astype(np.float64)
            self.check(g, s, payoffs, trial)

    @pytest.mark.parametrize("g", [
        build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        build_graph(4, [(0, 1), (1, 2)]),
        build_graph(3, []),
    ], ids=["star", "isolated_node", "edgeless"])
    def test_small_graphs(self, g):
        rng = np.random.default_rng(22)
        for trial in range(20):
            s = (rng.random(g.n) < 0.5).astype(np.int8)
            self.check(g, s, play_round(g, s, T=2.0, eps=0.0), trial)

    @pytest.mark.parametrize("g", [generate_hk(400, m=3, p_t=0.5, seed=1),
                                   generate_cnn(400, u=0.75, seed=1)],
                             ids=["hk", "cnn"])
    def test_generated_graphs(self, g):
        rng = np.random.default_rng(23)
        for T, eps in ((2.0, 0.0), (1.5, 0.0), (1.5, 0.25)):
            s = (rng.random(g.n) < 0.5).astype(np.int8)
            for trial in range(5):
                self.check(g, s, play_round(g, s, T=T, eps=eps), trial)

    def test_run_spd_trace(self, monkeypatch):
        g = generate_cnn(300, u=0.75, seed=3)
        a = one_cell_assignment(g.n)
        got = run_spd(g, a, T=2.0, seed=4, tie="random")
        monkeypatch.setattr(netsom.spd, "update_strategies",
                            lambda graph, s, p, tie, rng:
                            loop_random_update(graph, s, p, rng))
        want = run_spd(g, a, T=2.0, seed=4, tie="random")
        assert got.times == want.times and len(got.times) > 2
        assert all(np.array_equal(x, y) for x, y in zip(got.counts, want.counts))


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


@pytest.fixture(scope="module")
def cnn_2000():
    g = generate_cnn(2000, seed=1)
    rng = np.random.default_rng(0)
    return g, CellAssignment(width=3, height=2, x=rng.integers(0, 3, g.n),
                             y=rng.integers(0, 2, g.n))


def same_trace(got, want):
    return (got.times == want.times and got.fixed_point is want.fixed_point
            and all(np.array_equal(x, y) for x, y in zip(got.counts, want.counts)))


class TestCycleReplay:
    """A "min_id" run whose strategies return to an earlier round's copies
    the cycle's counts up to the cap instead of playing it again. On CNN
    n=2000 seed 1, game seed 1 enters a 5-round cycle at round 20 and
    closes it on round 25; game seed 7 settles on round 6."""

    @staticmethod
    def run(monkeypatch, g, a, seed, max_rounds, tie):
        """(run_spd's trace, the plain loop's trace, rounds run_spd played)"""
        want = rounds_run_spd(g, a, 1.5, 0.0, seed, max_rounds, tie)
        played = []
        monkeypatch.setattr(netsom.spd, "play_round",
                            lambda *args, **kw: played.append(1) or play_round(*args, **kw))
        got = run_spd(g, a, T=1.5, eps=0.0, seed=seed, max_rounds=max_rounds, tie=tie)
        return got, want, len(played)

    @pytest.mark.parametrize("max_rounds", [24, 25, 26, 100])
    def test_cycle_copied_to_the_cap(self, cnn_2000, monkeypatch, max_rounds):
        got, want, played = self.run(monkeypatch, *cnn_2000, 1, max_rounds, "min_id")
        assert same_trace(got, want)
        assert got.terminal_time == max_rounds and not got.fixed_point
        assert played == min(max_rounds, 25)

    def test_fixed_point_is_not_a_cycle(self, cnn_2000, monkeypatch):
        got, want, played = self.run(monkeypatch, *cnn_2000, 7, 100, "min_id")
        assert same_trace(got, want)
        assert got.terminal_time == played == 6 and got.fixed_point

    def test_random_ties_play_every_round(self, cnn_2000, monkeypatch):
        got, want, played = self.run(monkeypatch, *cnn_2000, 1, 100, "random")
        assert same_trace(got, want)
        assert played == got.terminal_time > 2
