import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsom import build_graph, load_edge_list, save_edge_list
from netsom.graph import gather_rows
from oracles import unique_build_graph


def test_build_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.num_edges == 2
    assert list(g.neighbors(1)) == [0, 2]
    assert list(g.neighbors(0)) == [1]


def test_duplicate_edges_collapse():
    g = build_graph(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1
    assert list(g.neighbors(0)) == [1]
    # either orientation and repeats collapse too
    g2 = build_graph(3, [(0, 1), (0, 1), (1, 0)])
    assert g == g2


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(2, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(2, [(0, 5)])
    with pytest.raises(ValueError, match="out of range"):
        build_graph(2, [(-1, 0)])
    # beyond the int32 range of Graph.indices, rejected before allocating
    with pytest.raises(ValueError, match="int32"):
        build_graph(10**14, [])


def test_adjacency_sorted_and_symmetric():
    g = build_graph(5, [(3, 1), (4, 0), (1, 0), (2, 1)])
    for i in range(5):
        nbrs = list(g.neighbors(i))
        assert nbrs == sorted(nbrs)
        assert len(nbrs) == len(set(nbrs))
        assert i not in nbrs
        for j in nbrs:
            assert i in g.neighbors(j)


def test_handshake_identity():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
    assert g.degrees.sum() == 2 * g.num_edges
    assert g.degrees.sum() % 2 == 0


def test_load_simple_file(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("0 1\n1 2\n")
    g = load_edge_list(p)
    assert g.n == 3
    assert g.num_edges == 2


def test_load_header_gives_isolated_nodes(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("# nodes: 5\n0 1\n")
    g = load_edge_list(p)
    assert g.n == 5
    assert g.num_edges == 1
    assert list(g.neighbors(4)) == []


def test_load_accepts_comments_and_crlf(tmp_path):
    p = tmp_path / "g.edges"
    p.write_bytes(b"# a comment\r\n0 1\r\n1 2\r\n")
    g = load_edge_list(p)
    assert g.n == 3 and g.num_edges == 2


def test_load_errors(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("0 x\n")
    with pytest.raises(ValueError, match="non-integer"):
        load_edge_list(p)
    p.write_text("0 -2\n")
    with pytest.raises(ValueError, match="negative"):
        load_edge_list(p)
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(p)
    p.write_text("# nothing but a plain comment\n")
    with pytest.raises(ValueError, match="empty"):
        load_edge_list(p)
    p.write_text("0 1\n1 1\n")
    with pytest.raises(ValueError, match=f"^{p}:2: self-loop"):
        load_edge_list(p)
    p.write_text("# nodes: 100000000000000\n0 1\n")
    with pytest.raises(ValueError, match=f"^{p}:1: node count"):
        load_edge_list(p)
    p.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(ValueError, match=f"^{p}: not UTF-8"):
        load_edge_list(p)


def test_round_trip(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    p = tmp_path / "p3.edges"
    save_edge_list(g, p)
    assert load_edge_list(p) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.data())
def test_round_trip_property(tmp_path_factory, n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]),
        max_size=20))
    g = build_graph(n, pairs)
    assert int(g.degrees.sum()) == 2 * g.num_edges
    p = tmp_path_factory.mktemp("rt") / "g.edges"
    save_edge_list(g, p)
    g2 = load_edge_list(p)
    assert g2 == g


def _rows_strictly_ascending(g):
    same_row = np.diff(np.repeat(np.arange(g.n), g.degrees)) == 0
    return bool((np.diff(g.indices)[same_row] > 0).all())


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.data())
def test_csr_rows_sorted(tmp_path_factory, n, data):
    """Rows are strictly ascending however the edges arrive; the Brandes
    pass relies on it for output that does not depend on its scan order."""
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]),
        max_size=80))
    p = tmp_path_factory.mktemp("csr") / "g.edges"
    p.write_text(f"# nodes: {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs))
    assert _rows_strictly_ascending(build_graph(n, pairs))
    assert _rows_strictly_ascending(load_edge_list(p))


def _built(build, n, edges):
    """The dtype, shape and bytes of both CSR arrays, or the error message."""
    try:
        g = build(n, edges)
    except ValueError as exc:
        return str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in (g.indptr, g.indices)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300), st.booleans(), st.data())
def test_build_matches_unique_oracle(n, bad_ids, data):
    """The sorted-key CSR build against the np.unique one: the same bytes,
    or the same error, for edges repeated in either orientation, isolated
    nodes, no edges, and (with ``bad_ids``) self-loops and ids out of range."""
    ids = st.integers(-1, n) if bad_ids else st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(ids, ids).filter(
        lambda e: bad_ids or e[0] != e[1]), max_size=200 if bad_ids or n > 1 else 0))
    again = data.draw(st.lists(st.sampled_from(pairs), max_size=50)) if pairs else []
    flips = data.draw(st.lists(st.booleans(), min_size=len(again), max_size=len(again)))
    edges = np.array(pairs + [(v, u) if flip else (u, v)
                              for (u, v), flip in zip(again, flips)],
                     dtype=np.int64).reshape(-1, 2)
    assert _built(build_graph, n, edges) == _built(unique_build_graph, n, edges)


def test_edge_array_canonical():
    g = build_graph(4, [(2, 0), (3, 2), (1, 0)])
    e = g.edge_array()
    assert (e[:, 0] < e[:, 1]).all()
    assert e.tolist() == sorted(e.tolist())


def test_immutable_arrays():
    g = build_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.indices[0] = 2


def test_equal_graphs_are_unhashable():
    # __eq__ compares structure, so an identity hash would break the hash
    # contract for two equal graphs
    with pytest.raises(TypeError):
        hash(build_graph(3, [(0, 1)]))
    assert build_graph(3, [(0, 1)]) == build_graph(3, [(1, 0)])


def test_gather_rows_of_nothing_is_empty():
    g = build_graph(4, [(0, 1)])
    for nodes in (np.empty(0, dtype=np.int64), np.array([2, 3, 2])):
        slots = gather_rows(g.indptr, g.degrees[nodes], nodes)
        assert slots.size == 0 and g.indices[slots].dtype == np.int32
    nodes = np.array([3, 1, 0, 1])
    slots = gather_rows(g.indptr, g.degrees[nodes], nodes)
    assert slots.tolist() == [1, 0, 1]
    assert g.indices[slots].tolist() == [0, 1, 0]
