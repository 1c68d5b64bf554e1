import hashlib
import pickle

import numpy as np
import pytest

from netsom import (build_graph, compute_all, compute_avg_neighbor_degree,
                    compute_avg_path_length, compute_betweenness,
                    compute_clustering, generate_cnn, generate_hk,
                    read_features_csv, write_features_csv)
from netsom import Graph, metrics
from conftest import live_descendants, random_connected_graph
from oracles import (avg_neighbor_degree_bruteforce, avg_path_length_bruteforce,
                     betweenness_bruteforce, clustering_bruteforce)

K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = build_graph(3, [(0, 1), (1, 2)])
STAR4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # center 0, 4 leaves


class TestAvgNeighborDegree:
    def test_triangle(self):
        assert compute_avg_neighbor_degree(K3).tolist() == [2, 2, 2]

    def test_star(self):
        knn = compute_avg_neighbor_degree(STAR4)
        assert knn[0] == 1
        assert knn[1:].tolist() == [4, 4, 4, 4]

    def test_path(self):
        knn = compute_avg_neighbor_degree(P3)
        assert knn[1] == 1
        assert knn[0] == knn[2] == 2

    def test_isolated_node_is_zero(self):
        g = build_graph(3, [(0, 1)])
        assert compute_avg_neighbor_degree(g)[2] == 0


class TestBetweenness:
    def test_path_middle(self):
        assert compute_betweenness(P3).tolist() == [0, 1, 0]

    def test_triangle_all_zero(self):
        assert compute_betweenness(K3).tolist() == [0, 0, 0]

    def test_star_center(self):
        b = compute_betweenness(STAR4)
        assert b[0] == 1 and (b[1:] == 0).all()

    def test_too_small(self):
        with pytest.raises(ValueError):
            compute_betweenness(build_graph(2, [(0, 1)]))

    def test_disconnected_pairs_contribute_zero(self):
        # two P3 components: each middle node intermediates exactly 1 pair,
        # denominator (5*4)/2 = 10
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        b = compute_betweenness(g)
        assert b[1] == pytest.approx(0.1)
        assert b[4] == pytest.approx(0.1)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            got = compute_betweenness(g)
            want = betweenness_bruteforce(g)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestAvgPathLength:
    def test_triangle(self):
        assert compute_avg_path_length(K3).tolist() == [1, 1, 1]

    def test_path(self):
        L = compute_avg_path_length(P3)
        assert L[1] == 1 and L[0] == L[2] == 1.5

    def test_star(self):
        L = compute_avg_path_length(STAR4)
        assert L[0] == 1
        assert L[1] == pytest.approx((1 + 2 + 2 + 2) / 4)

    def test_disconnected_raises_with_pair(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="no path between"):
            compute_avg_path_length(g)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            np.testing.assert_allclose(compute_avg_path_length(g),
                                       avg_path_length_bruteforce(g), atol=1e-12)

    def test_mean_matches_scipy_distance_matrix(self):
        # characteristic path length cross-check on a mid-sized instance
        import scipy.sparse as sp
        from scipy.sparse.csgraph import shortest_path
        g = generate_hk(150, m=3, p_t=0.7, seed=5)
        A = sp.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr),
                          shape=(g.n, g.n))
        d = shortest_path(A, method="BF", unweighted=True)
        want = d.sum(axis=1) / (g.n - 1)
        np.testing.assert_allclose(compute_avg_path_length(g), want, atol=1e-9)


class TestClustering:
    def test_triangle(self):
        assert compute_clustering(K3).tolist() == [1, 1, 1]

    def test_star_convention(self):
        C = compute_clustering(STAR4)
        assert C.tolist() == [0, 0, 0, 0, 0]  # center has no linked leaves; k=1 -> 0

    def test_k4_minus_edge(self):
        # node 0 adjacent to 1,2,3; edge 2-3 removed: E_0 = 2 of 3 pairs
        g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        C = compute_clustering(g)
        assert C[0] == pytest.approx(2 / 3)
        assert C[1] == pytest.approx(2 / 3)
        assert C[2] == 1 and C[3] == 1

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            np.testing.assert_allclose(compute_clustering(g),
                                       clustering_bruteforce(g), atol=1e-12)


class TestComputeAll:
    def test_k3_rows(self):
        f = compute_all(K3)
        for i in range(3):
            assert (f.k[i], f.k_nn[i], f.b[i], f.L[i], f.C[i]) == (2, 2, 0, 1, 1)

    def test_p3_middle(self):
        f = compute_all(P3)
        assert (f.k[1], f.k_nn[1], f.b[1], f.L[1], f.C[1]) == (2, 1, 1, 1, 0)

    def test_handshake_on_generated_graph(self):
        g = generate_hk(2000, m=4, p_t=0.9, seed=1)
        f = compute_all(g)
        assert f.k.mean() == 2 * g.num_edges / g.n

    def test_pure_repeated_calls_identical(self):
        g = random_connected_graph(np.random.default_rng(3), 40)
        a, b = compute_all(g), compute_all(g)
        for name in ("k", "k_nn", "b", "L", "C"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_knn_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        g = random_connected_graph(rng, 12)
        np.testing.assert_allclose(compute_avg_neighbor_degree(g),
                                   avg_neighbor_degree_bruteforce(g), atol=1e-12)

    def test_csv_round_trip_exact(self, tmp_path):
        g = generate_hk(60, m=3, p_t=0.8, seed=9)
        f = compute_all(g)
        p = tmp_path / "features.csv"
        write_features_csv(f, p)
        f2 = read_features_csv(p)
        for name in ("k", "k_nn", "b", "L", "C"):
            assert np.array_equal(getattr(f, name), getattr(f2, name)), name

    def test_one_block_cnn_bytes_pinned(self, tmp_path):
        """A one-block CNN graph with leaves and long BFS tails; the scan goes
        bottom-up on most of its levels. The sha256 is the features file
        of the plain top-down scan, which it must keep bit for bit."""
        g = generate_cnn(500, u=0.75, seed=2)
        assert g.n <= metrics.SOURCE_BLOCK and (g.degrees == 1).any()
        path = tmp_path / "features.csv"
        write_features_csv(compute_all(g), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1250b2c03f4b267e2bcf289192229595e4f7cb9fae8e3091d296c43ac52cef86")

    def test_csv_header(self, tmp_path):
        f = compute_all(K3)
        p = tmp_path / "features.csv"
        write_features_csv(f, p)
        assert p.read_text().splitlines()[0] == "node,k,k_nn,b,L,C"


def _two_copies(graph):
    """``graph`` twice, the second copy's ids shifted by ``graph.n``."""
    e = graph.edge_array()
    return build_graph(2 * graph.n, np.concatenate([e, e + graph.n]))


class TestSourceBlocks:
    """The multi-block Brandes path, with blocks small enough for n=300."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(metrics, "SOURCE_BLOCK", 64)

    def test_features_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        g = generate_hk(300, m=3, p_t=0.5, seed=4)
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            f = compute_all(g)
            assert not live_descendants()
            files.append(tmp_path / f"features_{threads}.csv")
            write_features_csv(f, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()
        # one block sums the sources in another order: the same distances,
        # betweenness equal to the last few ulps
        monkeypatch.setattr(metrics, "SOURCE_BLOCK", g.n)
        one = compute_all(g)
        assert np.array_equal(one.L, f.L)
        np.testing.assert_allclose(one.b, f.b, rtol=1e-12, atol=0)

    def test_workers_inherit_the_graph_unpickled(self, tmp_path, monkeypatch):
        g = generate_hk(300, m=3, p_t=0.5, seed=4)
        monkeypatch.setenv("NETSOM_THREADS", "1")
        files = [tmp_path / "in_process.csv", tmp_path / "forked.csv"]
        write_features_csv(compute_all(g), files[0])

        def refuse(self, protocol):
            raise TypeError("a Graph was pickled")
        monkeypatch.setattr(Graph, "__reduce_ex__", refuse)
        with pytest.raises(TypeError, match="pickled"):
            pickle.dumps(g)
        monkeypatch.setenv("NETSOM_THREADS", "2")
        write_features_csv(compute_all(g), files[1])
        assert not live_descendants()
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_disconnected_error_same_for_any_worker_count(self, monkeypatch):
        g = _two_copies(generate_hk(150, m=3, p_t=0.5, seed=4))
        messages = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            with pytest.raises(ValueError, match="no path between") as exc:
                compute_all(g)
            assert not live_descendants()
            messages.append(str(exc.value))
        assert messages == ["graph is disconnected: no path between nodes 0 and 150"] * 2

    def test_betweenness_of_disconnected_graph_over_blocks(self, monkeypatch):
        half = generate_hk(150, m=3, p_t=0.5, seed=4)
        monkeypatch.setenv("NETSOM_THREADS", "2")
        b = compute_betweenness(_two_copies(half))
        assert not live_descendants()
        # each copy's raw sums are unchanged; only the normalization grows
        scale = (149 * 148) / (299 * 298)
        np.testing.assert_allclose(b, np.tile(compute_betweenness(half) * scale, 2),
                                   rtol=1e-12, atol=0)


class TestNetworkxOracle:
    """All four computed features against networkx at n=1000, on graphs with
    hubs and deep BFS levels, through the multi-block path on two workers."""

    @pytest.mark.parametrize("model", ["hk", "cnn"])
    def test_features_match(self, model, monkeypatch):
        nx = pytest.importorskip("networkx")
        graph = (generate_hk(1000, m=4, p_t=0.9, seed=2) if model == "hk"
                 else generate_cnn(1000, u=0.75, seed=2))
        monkeypatch.setattr(metrics, "SOURCE_BLOCK", 128)
        monkeypatch.setenv("NETSOM_THREADS", "2")
        f = compute_all(graph)
        G = nx.Graph()
        G.add_nodes_from(range(graph.n))
        G.add_edges_from(graph.edge_array().tolist())
        nodes = range(graph.n)
        b = nx.betweenness_centrality(G, normalized=True)
        dist = dict(nx.all_pairs_shortest_path_length(G))
        C = nx.clustering(G)
        knn = nx.average_neighbor_degree(G)
        for got, want in ((f.b, [b[i] for i in nodes]),
                          (f.L, [sum(dist[i].values()) / (graph.n - 1) for i in nodes]),
                          (f.C, [C[i] for i in nodes]),
                          (f.k_nn, [knn[i] for i in nodes])):
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
