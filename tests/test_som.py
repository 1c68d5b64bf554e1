import numpy as np
import pytest

from netsom import (FEATURE_NAMES, NodeFeatures, assign_nodes, categorize,
                    cell_stats, compute_all, generate_hk, load_som_json,
                    normalize_features, quantization_error, save_som_json,
                    train_som)
from netsom.som import (read_assignment_csv, read_cell_stats_csv,
                        write_assignment_csv, write_cell_stats_csv)


def _grid(width, height, dim, seed):
    """Hand-built grid for plumbing tests; no training involved."""
    from netsom.som import SomGrid
    rng = np.random.default_rng(seed)
    return SomGrid(width=width, height=height,
                   weights=rng.random((width * height, dim)),
                   feat_min=np.zeros(dim), feat_max=np.ones(dim))


class TestNormalize:
    def test_constant_column_maps_to_half(self):
        mat = np.array([[2.0, 0.0], [2.0, 5.0], [2.0, 10.0]])
        norm, _ = normalize_features(mat)
        assert norm[:, 0].tolist() == [0.5, 0.5, 0.5]
        assert norm[:, 1].tolist() == [0.0, 0.5, 1.0]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(50, 5)) * [1, 10, 100, 0.01, 1]
        norm, (lo, hi) = normalize_features(mat)
        # the returned bounds invert the scaling
        np.testing.assert_allclose(norm * (hi - lo) + lo, mat, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_features(np.array([[1.0, np.nan], [2.0, 3.0]]))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            normalize_features(np.array([[1.0, 2.0]]))

    def test_log_columns(self):
        # the map scales log10(1+k) and the raw b; the cell means stay raw
        k = np.array([0, 9, 99])
        feats = NodeFeatures(k=k, k_nn=np.ones(3), b=k.astype(float),
                             L=np.ones(3), C=np.zeros(3))
        grid, _, stats = categorize(feats, 2, 1, epochs=1, seed=0,
                                    log_features=("k",))
        assert grid.feat_min.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]
        assert grid.feat_max.tolist() == [2.0, 1.0, 99.0, 1.0, 0.0]
        occ = ~stats.empty
        assert (stats.means[occ, 0] * stats.counts[occ]).sum() == 108


class TestTraining:
    def test_identical_vectors_share_one_cell(self):
        data = np.tile([0.3, 0.7, 0.1], (40, 1))
        grid = train_som(data, 5, 5, epochs=3, seed=1)
        a = assign_nodes(grid, data)
        assert len(set(zip(a.x.tolist(), a.y.tolist()))) == 1

    def test_two_clusters_get_disjoint_cells(self):
        data = np.vstack([np.zeros((100, 5)), np.ones((100, 5))])
        hits = 0
        for seed in range(10):
            grid = train_som(data, 5, 5, epochs=5, seed=seed)
            a = assign_nodes(grid, data)
            lin = a.linear()
            if set(lin[:100].tolist()).isdisjoint(lin[100:].tolist()):
                hits += 1
        assert hits >= 9

    def test_quantization_error_improves(self):
        g = generate_hk(400, m=4, p_t=0.9, seed=2)
        norm, _ = normalize_features(compute_all(g).as_matrix())
        grid = train_som(norm, 5, 5, epochs=5, seed=3)
        assert grid.qe_final <= grid.qe_initial
        assert grid.qe_final == pytest.approx(
            quantization_error(grid.weights, norm))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        data = rng.random((120, 5))
        g1 = train_som(data, 4, 3, epochs=10, seed=9)
        g2 = train_som(data, 4, 3, epochs=10, seed=9)
        assert np.array_equal(g1.weights, g2.weights)

    def test_sample_order_does_not_matter(self):
        # the batch map sums over all rows at once, so a permutation of the
        # rows changes only the order of floating-point sums
        data = np.random.default_rng(11).random((300, 5))
        for seed in range(3):
            perm = np.random.default_rng(100 + seed).permutation(len(data))
            g1 = train_som(data, 5, 4, epochs=10, seed=seed)
            g2 = train_som(data[perm], 5, 4, epochs=10, seed=seed)
            np.testing.assert_allclose(g2.weights, g1.weights, rtol=0, atol=1e-9)
            assert np.array_equal(assign_nodes(g2, data[perm]).linear(),
                                  assign_nodes(g1, data).linear()[perm])

    def test_underflowing_neighborhood_keeps_weights_finite(self):
        # on a 40x1 lattice the end radius makes exp underflow to 0 between
        # far-apart cells, so cells far from the one occupied cell get no
        # weight at all
        data = np.tile([0.2, 0.9, 0.4], (50, 1))
        grid = train_som(data, 40, 1, epochs=10, seed=4)
        assert np.isfinite(grid.weights).all()

    def test_validation(self):
        data = np.random.default_rng(0).random((10, 2))
        with pytest.raises(ValueError):
            train_som(data, 1, 1)
        with pytest.raises(ValueError):
            train_som(data, 5, 5, epochs=0)
        with pytest.raises(ValueError):
            train_som(np.empty((0, 2)), 5, 5)


class TestAssignment:
    def test_exact_weight_match(self):
        grid = _grid(3, 3, 2, seed=1)
        sample = grid.weights[[4]]
        a = assign_nodes(grid, sample)
        assert a.linear()[0] == 4

    def test_tie_breaks_to_lowest_linear_index(self):
        grid = _grid(3, 2, 2, seed=2)
        grid.weights[5] = grid.weights[2]  # duplicate weight vector
        a = assign_nodes(grid, grid.weights[[5]])
        assert a.linear()[0] == 2

    def test_reassignment_stable(self):
        data = np.random.default_rng(3).random((200, 5))
        grid = _grid(5, 5, 5, seed=3)
        a1 = assign_nodes(grid, data)
        a2 = assign_nodes(grid, data)
        assert np.array_equal(a1.x, a2.x) and np.array_equal(a1.y, a2.y)

    def test_dimension_mismatch(self):
        grid = _grid(3, 3, 3, seed=4)
        with pytest.raises(ValueError, match="dimension"):
            assign_nodes(grid, np.random.random((5, 4)))

    def test_every_node_assigned_in_range(self):
        data = np.random.default_rng(5).random((300, 5))
        grid = _grid(5, 5, 5, seed=5)
        a = assign_nodes(grid, data)
        assert a.n == 300
        assert ((a.x >= 0) & (a.x < 5)).all()
        assert ((a.y >= 0) & (a.y < 5)).all()


class TestCellStats:
    def test_partition_and_means(self):
        data = np.random.default_rng(6).random((150, 5))
        grid = _grid(5, 5, 5, seed=6)
        a = assign_nodes(grid, data)
        stats = cell_stats(a, data, FEATURE_NAMES)
        assert stats.counts.sum() == 150
        # brute-force recomputation per populated cell
        lin = a.linear()
        for cell in np.flatnonzero(~stats.empty):
            members = data[lin == cell]
            np.testing.assert_allclose(stats.means[cell], members.mean(axis=0),
                                       atol=1e-9)
        assert np.isnan(stats.means[stats.empty]).all()

    def test_single_cell_means_are_global(self):
        from netsom.som import CellAssignment
        data = np.arange(12, dtype=float).reshape(6, 2)
        a = CellAssignment(width=2, height=2, x=np.zeros(6, dtype=np.int64),
                           y=np.zeros(6, dtype=np.int64))
        stats = cell_stats(a, data, ("x", "y"))
        np.testing.assert_allclose(stats.means[0], data.mean(axis=0))
        assert stats.counts.tolist() == [6, 0, 0, 0]

    def test_two_value_mean(self):
        from netsom.som import CellAssignment
        data = np.array([[2.0], [4.0]])
        a = CellAssignment(width=1, height=1,
                           x=np.zeros(2, dtype=np.int64),
                           y=np.zeros(2, dtype=np.int64))
        stats = cell_stats(a, data, ("x",))
        assert stats.means[0, 0] == 3.0


class TestSerialization:
    def test_som_json_round_trip(self, tmp_path):
        grid = _grid(4, 4, 5, seed=7)
        grid.feat_min = np.array([0.0, 1.5, -2.0, 0.25, 3.0])
        grid.feat_max = np.array([1.0, 9.5, 2.0, 0.75, 3.0])
        p = tmp_path / "grid.som.json"
        save_som_json(grid, p)
        g2 = load_som_json(p)
        assert g2.width == 4 and g2.height == 4
        np.testing.assert_array_equal(g2.weights, grid.weights)
        np.testing.assert_array_equal(g2.feat_min, grid.feat_min)
        np.testing.assert_array_equal(g2.feat_max, grid.feat_max)

    def test_assignment_csv_round_trip(self, tmp_path):
        data = np.random.default_rng(8).random((40, 5))
        grid = _grid(5, 5, 5, seed=8)
        a = assign_nodes(grid, data)
        p = tmp_path / "assign.csv"
        write_assignment_csv(a, p)
        a2 = read_assignment_csv(p)
        assert np.array_equal(a.x, a2.x) and np.array_equal(a.y, a2.y)

    def test_cell_stats_csv_round_trip(self, tmp_path):
        data = np.random.default_rng(9).random((80, 5))
        grid = _grid(5, 5, 5, seed=9)
        a = assign_nodes(grid, data)
        a.x[a.linear() == 0] = 1  # cell (0, 0) is empty: its means are blank
        stats = cell_stats(a, data, feature_names=("k", "k_nn", "b", "L", "C"))
        p = tmp_path / "cells.csv"
        write_cell_stats_csv(stats, p)
        assert p.read_text().splitlines()[1] == "0,0,0,,,,,"
        s2 = read_cell_stats_csv(p)
        assert np.array_equal(stats.counts, s2.counts)
        occ = ~stats.empty
        np.testing.assert_array_equal(stats.means[occ], s2.means[occ])
        assert np.isnan(s2.means[stats.empty]).all()
        assert s2.feature_names == stats.feature_names

    def test_pipeline_determinism_bytes(self, tmp_path):
        g = generate_hk(300, m=4, p_t=0.9, seed=10)
        feats = compute_all(g)
        outs = []
        for run in range(2):
            _, a, stats = categorize(feats, 5, 5, epochs=3, seed=17)
            pa = tmp_path / f"a{run}.csv"
            pc = tmp_path / f"c{run}.csv"
            write_assignment_csv(a, pa)
            write_cell_stats_csv(stats, pc)
            outs.append((pa.read_bytes(), pc.read_bytes()))
        assert outs[0] == outs[1]
