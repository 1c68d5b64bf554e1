import hashlib

import numpy as np
import pytest

from netsom import (build_graph, generate_cnn, generate_hk, init_sir, run_sir,
                    write_trace_csv)
from netsom.sir import I, R, S, _sweep
from netsom.som import CellAssignment
from conftest import random_connected_graph


def one_cell_assignment(n):
    return CellAssignment(width=1, height=1,
                          x=np.zeros(n, dtype=np.int64),
                          y=np.zeros(n, dtype=np.int64))


def every_sweep(g, n_initial, lam, mu, dt, seed):
    """Whole-network S/I/R counts after every sweep of one run_sir run."""
    trace = run_sir(g, one_cell_assignment(g.n), lam=lam, mu=mu, dt=dt,
                    n_initial=n_initial, seed=seed, snapshot_every=dt)
    # snapshot_every=dt takes one snapshot per sweep, t = sweep * dt
    np.testing.assert_allclose(trace.times,
                               dt * np.arange(len(trace.times)), atol=1e-12)
    return [trace.totals(i) for i in range(len(trace.times))]


# sha256 of the trace CSV of one SIR run on a CNN n=300 graph, per
# (dt, snapshot_every): intervals that are not multiples of dt, or lie below
# it, and runs longer than one 64-sweep draw block
SIR_TRACE_DIGESTS = {
    (0.03, 0.1):
        "8c84bcf604db7f01205440f1761aa192ca973dfc632ed9432d0785dc1c0756b2",
    (0.07, 0.05):
        "7bd07d46fd3eb33c445fd58579aeeb812fb36d07d740cbec60e69081ee03e077",
    (0.01, 0.001):
        "a55f9b300259da0937f0a63f5759ee46e52b48426cc32fdeeb4d656dab1e368b",
    (0.1, 1 / 7):
        "3d3eaffa08a697c99c0725b2410865bdbf4200a319ebc881d90276aacc32242f",
}

# the largest uniform draw below 1
BELOW_ONE = float(np.nextafter(1.0, 0.0))


def adjacency_lists(g):
    return [g.neighbors(i).tolist() for i in range(g.n)]


def star_sweep(lam_dt, mu_dt, draw):
    """_sweep on a 5-leaf star, susceptible center and infectious leaves,
    picking the center once with the given uniform draw; returns
    (infections and recoveries, states, infectious-neighbor counts)."""
    g = build_graph(6, [(0, j) for j in range(1, 6)])
    states = [S] + [I] * 5
    inf_cnt = [5, 0, 0, 0, 0, 0]
    result = _sweep(states, adjacency_lists(g), inf_cnt, [0], [draw],
                    lam_dt, mu_dt)
    return result, states, inf_cnt


class TestInit:
    def test_counts(self):
        g = random_connected_graph(np.random.default_rng(0), 50)
        st = init_sir(g, 10, seed=1)
        assert st.dtype == np.int8
        assert np.bincount(st, minlength=3).tolist() == [40, 10, 0]

    def test_all_infected(self):
        g = random_connected_graph(np.random.default_rng(1), 20)
        st = init_sir(g, 20, seed=2)
        assert np.bincount(st, minlength=3).tolist() == [0, 20, 0]

    def test_deterministic(self):
        g = random_connected_graph(np.random.default_rng(2), 60)
        assert np.array_equal(init_sir(g, 5, seed=3), init_sir(g, 5, seed=3))

    def test_range_errors(self):
        g = random_connected_graph(np.random.default_rng(3), 10)
        with pytest.raises(ValueError):
            init_sir(g, 0, seed=0)
        with pytest.raises(ValueError):
            init_sir(g, 11, seed=0)


class TestStep:
    def test_lambda_zero_never_infects(self):
        g = random_connected_graph(np.random.default_rng(4), 40)
        for c in every_sweep(g, 5, lam=0.0, mu=1.0, dt=0.01, seed=5):
            assert c[S] == 35
            assert c[I] + c[R] == 5
        # the kernel too: a certain-looking draw cannot infect at lambda=0
        assert star_sweep(0.0, 1.0, 0.0)[0] == (0, 0)

    def test_removed_never_changes(self):
        # node 1 is removed with two infectious neighbors; every pick of it,
        # with draws that would infect or recover anyone, leaves it removed
        g = build_graph(3, [(0, 1), (1, 2)])
        states = [I, R, I]
        inf_cnt = [0, 2, 0]
        assert _sweep(states, adjacency_lists(g), inf_cnt, [1, 1, 1],
                      [0.0, 0.0, 0.0], 5.0, 1.0) == (0, 0)
        assert states == [I, R, I]
        assert inf_cnt == [0, 2, 0]

    def test_conservation_every_sweep(self):
        g = random_connected_graph(np.random.default_rng(8), 30)
        counts = every_sweep(g, 3, lam=0.5, mu=0.5, dt=0.05, seed=10)
        assert len(counts) > 2
        for c in counts:
            assert c.sum() == 30

    def test_monotone_s_and_r(self):
        g = random_connected_graph(np.random.default_rng(11), 50)
        counts = every_sweep(g, 5, lam=0.3, mu=0.8, dt=0.02, seed=13)
        assert len(counts) > 2
        for prev, c in zip(counts, counts[1:]):
            assert c[S] <= prev[S]
            assert c[R] >= prev[R]

    def test_clamped_probability(self):
        # lambda*n_I*dt = 0.2*5 = 1 and 0.4*5 = 2: every draw in [0, 1) infects
        for lam_dt in (0.2, 0.4):
            assert star_sweep(lam_dt, 1.0, BELOW_ONE)[0] == (1, 0)
        # below the clamp the probability is lambda*n_I*dt = 0.1 exactly
        assert star_sweep(0.02, 1.0, 0.0999)[0] == (1, 0)
        assert star_sweep(0.02, 1.0, 0.1001)[0] == (0, 0)

    def test_hub_with_certain_infection(self):
        # lambda*n_I*dt = 40*5*0.01 = 2 > 1: a pick of the susceptible center
        # infects it whatever the draw; mu=0 keeps it infectious, and its
        # leaves then count one infectious neighbor each
        result, states, inf_cnt = star_sweep(40.0 * 0.01, 0.0, BELOW_ONE)
        assert result == (1, 0)
        assert states[0] == I
        assert inf_cnt == [5, 1, 1, 1, 1, 1]


class TestRun:
    def test_trace_invariants(self):
        g = generate_hk(300, m=4, p_t=0.9, seed=14)
        a = one_cell_assignment(g.n)
        trace = run_sir(g, a, seed=15)
        for i in range(len(trace.times)):
            assert trace.counts[i].sum() == g.n
        assert trace.times == sorted(trace.times)
        assert len(set(trace.times)) == len(trace.times)
        # terminal snapshot has no infectious agents anywhere
        assert trace.counts[-1][1].sum() == 0

    def test_lambda_zero_terminal_r_equals_initial(self):
        g = generate_hk(200, m=4, p_t=0.9, seed=16)
        a = one_cell_assignment(g.n)
        trace = run_sir(g, a, lam=0.0, n_initial=10, seed=17)
        totals = trace.counts[-1].sum(axis=1)
        assert totals.tolist() == [190, 0, 10]

    def test_deterministic_trace(self):
        g = generate_hk(150, m=3, p_t=0.5, seed=18)
        a = one_cell_assignment(g.n)
        t1 = run_sir(g, a, seed=19)
        t2 = run_sir(g, a, seed=19)
        assert t1.times == t2.times
        assert all(np.array_equal(x, y) for x, y in zip(t1.counts, t2.counts))

    def test_per_cell_counts_split_by_assignment(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        a = CellAssignment(width=2, height=1,
                           x=np.array([0, 0, 1, 1], dtype=np.int64),
                           y=np.zeros(4, dtype=np.int64))
        trace = run_sir(g, a, lam=0.0, n_initial=4, seed=3)
        # all four start infectious: cell populations stay 2 and 2
        assert trace.counts[0].sum(axis=0).tolist() == [2, 2]
        assert trace.counts[-1].sum(axis=0).tolist() == [2, 2]

    @pytest.mark.parametrize("dt,snapshot_every", list(SIR_TRACE_DIGESTS))
    def test_trace_bytes_pinned(self, tmp_path, dt, snapshot_every):
        g = generate_cnn(300, u=0.75, seed=20)
        cells = np.arange(g.n)
        a = CellAssignment(width=3, height=2, x=cells % 3, y=cells // 3 % 2)
        trace = run_sir(g, a, lam=0.5, dt=dt, snapshot_every=snapshot_every,
                        seed=21)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == SIR_TRACE_DIGESTS[dt, snapshot_every]

    def test_mu_zero_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            run_sir(g, one_cell_assignment(3), mu=0.0, n_initial=1, seed=0)

    @pytest.mark.parametrize("param", ["lam", "mu", "dt", "snapshot_every"])
    def test_non_finite_parameter_rejected(self, param):
        g = build_graph(3, [(0, 1), (1, 2)])
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="must be finite"):
                run_sir(g, one_cell_assignment(3), n_initial=1, seed=0,
                        **{param: value})

    def test_two_node_oracle_small(self):
        # continuous-time limit: P(S infected before I recovers) = lam/(lam+mu);
        # the acceptance suite runs the full 20000-trial version
        g = build_graph(2, [(0, 1)])
        a = one_cell_assignment(2)
        hits = 0
        runs = 2000
        for s in range(runs):
            trace = run_sir(g, a, lam=0.2, mu=1.0, dt=0.01, n_initial=1, seed=s)
            hits += int(trace.counts[-1].sum(axis=1)[2] == 2)
        assert abs(hits / runs - 1 / 6) < 0.05
