import hashlib
import itertools
import pickle

import numpy as np
import pytest

from netsom import (build_graph, compute_all, compute_avg_neighbor_degree,
                    compute_clustering, generate_cnn, generate_hk,
                    read_features_csv, write_features_csv)
from netsom import Graph, metrics
from conftest import live_descendants, random_connected_graph
from oracles import (avg_neighbor_degree_bruteforce, avg_path_length_bruteforce,
                     betweenness_bruteforce, clustering_bruteforce)

K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = build_graph(3, [(0, 1), (1, 2)])
STAR4 = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # center 0, 4 leaves
DOUBLE_STAR = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
P5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
# spine 0-1-2-3, leaves on 0, 1 and 3
CATERPILLAR = build_graph(10, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (1, 6),
                               (3, 7), (3, 8), (3, 9)])


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
        assert compute_all(P3).b.tolist() == [0, 1, 0]

    def test_triangle_all_zero(self):
        assert compute_all(K3).b.tolist() == [0, 0, 0]

    def test_star_center(self):
        b = compute_all(STAR4).b
        assert b[0] == 1 and (b[1:] == 0).all()

    def test_too_small(self):
        with pytest.raises(ValueError):
            compute_all(build_graph(2, [(0, 1)]))

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            got = compute_all(g).b
            want = betweenness_bruteforce(g)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestAvgPathLength:
    def test_triangle(self):
        assert compute_all(K3).L.tolist() == [1, 1, 1]

    def test_path(self):
        L = compute_all(P3).L
        assert L[1] == 1 and L[0] == L[2] == 1.5

    def test_star(self):
        L = compute_all(STAR4).L
        assert L[0] == 1
        assert L[1] == pytest.approx((1 + 2 + 2 + 2) / 4)

    def test_disconnected_raises_with_pair(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="no path between"):
            compute_all(g)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, int(rng.integers(4, 13)))
            np.testing.assert_allclose(compute_all(g).L,
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
        np.testing.assert_allclose(compute_all(g).L, want, atol=1e-9)


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


def _reaches(graph):
    """The reach of each node of each biconnected block, block by block."""
    _, start, _, _, ell = metrics._biconnected_blocks(graph)
    return [ell[a:z] + 1 for a, z in zip(start[:-1], start[1:])]


def _with_leaves(graph, rng, leaves):
    """``graph`` plus ``leaves`` new nodes, each attached to a random earlier
    node, so some hang off others as pendant paths."""
    e = graph.edge_array().tolist()
    e += [(int(rng.integers(u)), u) for u in range(graph.n, graph.n + leaves)]
    return build_graph(graph.n + leaves, e)


# (edges, n, the pair the error names): node 0 and the lowest unreached node
DISCONNECTED = [
    ([(0, 1), (2, 3), (3, 4), (2, 4)], 5, (0, 2)),
    ([(0, 1), (0, 2), (0, 3), (0, 4)], 6, (0, 5)),
    ([(0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (4, 6)], 7, (0, 4)),
    # the depth-first search runs 1999 deep before it finds node 2000 missing
    ([(i, i + 1) for i in range(1999)], 2001, (0, 2000)),
]


class TestLeafPruning:
    """A leaf is a 2-node block: it comes back through its neighbor's reach
    there; distance sums stay integers, so L is exact."""

    @staticmethod
    def check(g):
        f = compute_all(g)
        assert np.array_equal(f.L, avg_path_length_bruteforce(g))
        np.testing.assert_allclose(f.b, betweenness_bruteforce(g), rtol=0,
                                   atol=1e-12)

    @pytest.mark.parametrize("g, reaches", [
        (STAR4, [(1, 4)] * 4),
        (DOUBLE_STAR, [(1, 6)] * 5 + [(3, 4)]),
        (P5, [(1, 4)] * 2 + [(2, 3)] * 2),
        (CATERPILLAR, [(1, 9)] * 6 + [(3, 7), (4, 6), (5, 5)])],
        ids=["star", "double_star", "P5", "caterpillar"])
    def test_small_cores(self, g, reaches):
        # a tree is all bridges: a 2-node block per edge, whose reaches are
        # the node counts on the edge's two sides
        blocks = _reaches(g)
        assert all(block.size == 2 for block in blocks)
        assert sorted(tuple(sorted(block)) for block in blocks) == reaches
        self.check(g)

    def test_random_graphs_with_leaves(self):
        rng = np.random.default_rng(88)
        for _ in range(25):
            core = random_connected_graph(rng, int(rng.integers(3, 9)))
            g = _with_leaves(core, rng, int(rng.integers(1, 7)))
            self.check(g)

    @pytest.mark.parametrize("edges, n, pair", DISCONNECTED,
                             ids=["K2_beside_triangle", "star_and_isolated_node",
                                  "star_of_leaf_0", "P2000_and_isolated_node"])
    def test_disconnected_raises_with_original_ids(self, edges, n, pair):
        with pytest.raises(ValueError, match="no path between") as exc:
            compute_all(build_graph(n, edges))
        assert str(exc.value).endswith(f"nodes {pair[0]} and {pair[1]}")


# graphs glued from cycles, K4s, paths and trees at shared nodes:
# (n, edges, the sorted sizes of their biconnected blocks)
GLUED = {
    # a triangle, a 4-cycle, a K4 and a bridge all meet at node 0
    "four_blocks_at_one_node": (10, [
        (0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (0, 5), (0, 6),
        (0, 7), (0, 8), (6, 7), (6, 8), (7, 8), (0, 9)], [2, 3, 4, 4]),
    # a 5-cycle and a K4 joined by a chain of three bridges
    "bridge_chain": (11, [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (6, 7),
        (7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)], [2, 2, 2, 4, 5]),
    # a K4, a 4-cycle on it, a pendant triangle on that, and a path off
    # the triangle
    "pendant_triangle": (11, [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
        (5, 6), (3, 6), (5, 7), (7, 8), (5, 8), (8, 9), (9, 10)],
        [2, 2, 3, 4, 4]),
    # node 0 is a leaf of node 1, which a triangle and a 4-cycle share;
    # a 2-edge tail hangs off the 4-cycle
    "rooted_at_a_leaf": (9, [
        (0, 1), (1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (5, 6), (1, 6),
        (6, 7), (7, 8)], [2, 2, 2, 3, 4]),
}


def _random_glued(rng, n_max=12):
    """Cycles of 3 to 5 nodes, K4s and single edges, each glued at a random
    node of what is there, until the next does not fit; ids shuffled."""
    edges, n = [], 1
    while True:
        kind = int(rng.integers(3))
        size = (int(rng.integers(3, 6)), 4, 2)[kind]
        if n + size - 1 > n_max:
            break
        ids = [int(rng.integers(n))] + list(range(n, n + size - 1))
        edges += (list(zip(ids, ids[1:] + ids[:1])) if kind == 0
                  else list(itertools.combinations(ids, 2)))
        n += size - 1
    perm = rng.permutation(n)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


class TestBiconnectedBlocks:
    """Graphs with cut vertices: every block on its own, nodes weighted by
    their reach, against path enumeration and Floyd-Warshall."""

    @pytest.mark.parametrize("name", list(GLUED))
    def test_glued_graphs(self, name):
        n, edges, sizes = GLUED[name]
        g = build_graph(n, edges)
        blocks = _reaches(g)
        assert sorted(block.size for block in blocks) == sizes
        # a block's reaches count every node once
        assert all(block.sum() == n for block in blocks)
        TestLeafPruning.check(g)

    def test_random_glued_graphs(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            TestLeafPruning.check(_random_glued(rng))

    def test_bridge_closed_form_is_the_kernel(self):
        # the kernel stays the reference: on every 2-node block, the closed
        # form must give its raw betweenness and distance sums bit for bit
        g = generate_cnn(2000, u=0.75, seed=1)
        _, start, _, union, ell = metrics._biconnected_blocks(g)
        bridges = [(a, z) for a, z in zip(start[:-1].tolist(),
                                           start[1:].tolist()) if z - a == 2]
        assert len(bridges) > 500
        for a, z in bridges:
            rows = union.indptr[a:z + 1]
            block = Graph(2, rows - rows[0], union.indices[rows[0]:rows[-1]] - a)
            raw, sums = metrics._brandes_block(block, ell[a:z], 0)
            closed_raw, closed_sums = metrics._brandes_bridge(ell[a:z])
            assert raw.tobytes() == closed_raw.tobytes()
            assert sums.tobytes() == closed_sums.tobytes()


class TestComputeAll:
    def test_k3_rows(self):
        f = compute_all(K3)
        for i in range(3):
            assert (f.k[i], f.k_nn[i], f.b[i], f.L[i], f.C[i]) == (2, 2, 0, 1, 1)

    def test_p3_middle(self):
        f = compute_all(P3)
        assert (f.k[1], f.k_nn[1], f.b[1], f.L[1], f.C[1]) == (2, 1, 1, 1, 0)

    def test_path_deeper_than_the_recursion_limit(self):
        # the depth-first search reaches depth n - 1 = 1999, above Python's
        # default recursion limit of 1000; distance sums and path counts
        # are integers, so both features are exact
        n = 2000
        f = compute_all(build_graph(n, [(i, i + 1) for i in range(n - 1)]))
        i = np.arange(n)
        assert np.array_equal(
            f.L, (i * (i + 1) // 2 + (n - 1 - i) * (n - i) // 2) / (n - 1))
        assert np.array_equal(f.b, 2 * i * (n - 1 - i) / ((n - 1) * (n - 2)))

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
        """A CNN graph of one source block, with leaves and long BFS tails.
        It splits into 341-node and smaller biconnected blocks, and the scan
        of the largest goes bottom-up on most of its levels. The sha256 is
        the features file of the plain top-down scan of the same blocks,
        which it must keep bit for bit.

        The L digest is that of the pass over the leaf-pruned core that the
        blocks replaced: distance sums are integers, so L kept every bit.
        b did not: each block sums its sources' dependencies on its own,
        and a cut vertex adds its blocks' sums in turn, so b moved in the
        last ulps (1.3e-15 relative at most), and the file digest with it.
        """
        g = generate_cnn(500, u=0.75, seed=2)
        assert g.n <= metrics.SOURCE_BLOCK and (g.degrees == 1).any()
        f = compute_all(g)
        assert hashlib.sha256(f.L.tobytes()).hexdigest() == (
            "eaa9b0884b53231cc871b4d81e9e0ca92ea19ea79f6f57956ed3647263a6d9da")
        path = tmp_path / "features.csv"
        write_features_csv(f, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "de8a03392b9d71af80d8f61ee65a879f2335f5f461c95ad302f306889600c9e0")

    def test_hk_bytes_pinned(self, tmp_path):
        """An HK graph of one biconnected block and four source units,
        whose BFS levels are scanned top-down and bottom-up (about 1.8 to
        1 over its 2000 sources). The sha256 is the features file of the
        kernel that selected each level's DAG edges by boolean mask."""
        f = compute_all(generate_hk(2000, m=4, p_t=0.9, seed=1))
        path = tmp_path / "features.csv"
        write_features_csv(f, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "be1f8fc18476f943867a92c494798393a6e7e3da976554b989256e770ec831f4")

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

    def test_cnn_blocks_identical_for_any_worker_count(self, tmp_path,
                                                       monkeypatch):
        # many blocks, the largest over several source units, the rest
        # packed into shared jobs
        g = generate_cnn(300, u=0.75, seed=4)
        blocks = _reaches(g)
        assert len(blocks) > 50
        assert max(block.size for block in blocks) > 2 * metrics.SOURCE_BLOCK
        files = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            f = compute_all(g)
            assert not live_descendants()
            files.append(tmp_path / f"features_{threads}.csv")
            write_features_csv(f, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()

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

    @staticmethod
    def disconnected_messages(g, monkeypatch):
        messages = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            with pytest.raises(ValueError, match="no path between") as exc:
                compute_all(g)
            assert not live_descendants()
            messages.append(str(exc.value))
        return messages

    def test_disconnected_error_same_for_any_worker_count(self, monkeypatch):
        g = _two_copies(generate_hk(150, m=3, p_t=0.5, seed=4))
        assert self.disconnected_messages(g, monkeypatch) == [
            "graph is disconnected: no path between nodes 0 and 150"] * 2

    def test_disconnected_error_names_original_ids(self, monkeypatch):
        # each block renumbers its nodes; the error must not
        g = _two_copies(generate_cnn(150, u=0.75, seed=4))
        assert (g.degrees == 1).any()
        assert self.disconnected_messages(g, monkeypatch) == [
            "graph is disconnected: no path between nodes 0 and 150"] * 2

    def test_connectivity_checked_before_the_pass(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Brandes pass ran")
        monkeypatch.setattr(metrics, "_brandes_block", refuse)
        cases = [(build_graph(n, edges), pair) for edges, n, pair in DISCONNECTED]
        cases += [(_two_copies(generate_hk(150, m=3, p_t=0.5, seed=4)), (0, 150)),
                  (_two_copies(generate_cnn(150, u=0.75, seed=4)), (0, 150))]
        for g, (a, b) in cases:
            assert self.disconnected_messages(g, monkeypatch) == [
                f"graph is disconnected: no path between nodes {a} and {b}"] * 2


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
