import numpy as np
import pytest

from netsom import compute_clustering, generate_cnn, generate_hk
from netsom import generators
from oracles import degree_assortativity, is_connected


def hk_expected_edges(n, m):
    return m * (n - m - 1) + m * (m + 1) // 2


class TestHK:
    def test_seed_clique_only(self):
        g = generate_hk(5, m=4, seed=0)
        assert g.n == 5
        assert g.num_edges == 10  # the initial 5-clique, no growth steps
        assert all(g.degrees == 4)

    def test_exact_edge_count_and_mean_degree(self):
        # (210, 200, 0.0, 0) needs more than 100 draws for one edge: no draw
        # budget may drop it
        for n, m, p_t, seed in [(2000, 4, 0.9, 3), (210, 200, 0.0, 0)]:
            g = generate_hk(n, m=m, p_t=p_t, seed=seed)
            assert g.num_edges == hk_expected_edges(n, m)
            assert g.mean_degree == 2 * g.num_edges / n

    def test_connected_and_simple(self):
        g = generate_hk(500, m=3, p_t=0.5, seed=7)
        assert is_connected(g)
        for i in range(g.n):
            nbrs = list(g.neighbors(i))
            assert i not in nbrs
            assert len(nbrs) == len(set(nbrs))

    def test_deterministic(self):
        a = generate_hk(300, m=4, p_t=0.9, seed=42)
        b = generate_hk(300, m=4, p_t=0.9, seed=42)
        assert a == b
        c = generate_hk(300, m=4, p_t=0.9, seed=43)
        assert a != c

    def test_triad_formation_raises_clustering(self):
        # Monte Carlo comparison: p_t=0.9 must clearly beat p_t=0
        high = [compute_clustering(generate_hk(600, 4, 0.9, seed=s)).mean()
                for s in range(10)]
        low = [compute_clustering(generate_hk(600, 4, 0.0, seed=100 + s)).mean()
               for s in range(10)]
        assert np.mean(high) > 2 * np.mean(low)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate_hk(4, m=4)
        with pytest.raises(ValueError):
            generate_hk(10, m=0)
        with pytest.raises(ValueError):
            generate_hk(10, m=2, p_t=1.5)


class TestCNN:
    def test_two_nodes_forced_edge(self):
        for u in (0.05, 0.5, 0.95):
            g = generate_cnn(2, u=u, seed=1)
            assert g.n == 2
            assert g.num_edges == 1

    def test_single_node(self):
        g = generate_cnn(1, u=0.5, seed=0)
        assert g.n == 1 and g.num_edges == 0

    def test_edge_count_identity(self, monkeypatch):
        # every growth step and conversion adds a new edge: none repeats
        built, build_graph = [], generators.build_graph

        def capture(n, edges):
            built.append(list(edges))
            return build_graph(n, edges)

        monkeypatch.setattr(generators, "build_graph", capture)
        g = generate_cnn(700, u=0.75, seed=5)
        (edges,) = built
        assert g.num_edges == len(edges) >= 700 - 1

    def test_connected_and_simple(self):
        g = generate_cnn(800, u=0.75, seed=11)
        assert is_connected(g)
        for i in range(g.n):
            nbrs = list(g.neighbors(i))
            assert i not in nbrs
            assert len(nbrs) == len(set(nbrs))

    def test_mean_degree_target(self):
        # 2/(1-u) tuning measured over seeds before freezing the default
        ks = [generate_cnn(3000, u=0.75, seed=s).mean_degree for s in range(5)]
        assert 7.0 <= np.mean(ks) <= 9.0

    def test_assortative(self):
        signs = [degree_assortativity(generate_cnn(5000, u=0.75, seed=s)) > 0
                 for s in range(10)]
        assert sum(signs) >= 9

    def test_deterministic(self):
        assert generate_cnn(400, u=0.6, seed=9) == generate_cnn(400, u=0.6, seed=9)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            generate_cnn(10, u=0.0)
        with pytest.raises(ValueError):
            generate_cnn(10, u=1.0)
        with pytest.raises(ValueError):
            generate_cnn(0, u=0.5)
