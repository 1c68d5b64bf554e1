"""Acceptance suite: every criterion at its stated tolerance.

Each test registers one PASS/FAIL line (printed in the terminal summary)
with the observed statistics, then asserts its gate. Seeds derive exactly
as the pipeline derives its per-stage seeds, so results are reproducible.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from scipy.stats import spearmanr

from netsom import (assign_nodes, build_graph, cell_stats, compute_all,
                    compute_avg_neighbor_degree, compute_avg_path_length,
                    compute_betweenness, compute_clustering,
                    degree_assortativity, generate_cnn, generate_hk,
                    normalize_features, play_round, ramp_color,
                    run_sir, run_spd, train_som, update_strategies)
from netsom.pipeline import derive_seed, full_run, sha256_file
from netsom.som import CellAssignment
from netsom.spd import C, D
from conftest import random_connected_graph
from oracles import (avg_path_length_bruteforce, betweenness_bruteforce,
                     clustering_bruteforce)
from test_render import RECT_ID_RE, per_pie_angle_sums
from test_spd import reference_update

pytestmark = pytest.mark.acceptance


def one_cell(n):
    z = np.zeros(n, dtype=np.int64)
    return CellAssignment(width=1, height=1, x=z, y=z)


def som_pipeline(graph, master):
    """Features -> normalize -> train -> assign -> stats, pipeline-seeded."""
    feats = compute_all(graph)
    norm, params = normalize_features(feats)
    grid = train_som(norm, 5, 5, epochs=20, seed=derive_seed(master, 2),
                     norm_params=params)
    assignment = assign_nodes(grid, norm)
    return feats, grid, assignment, cell_stats(assignment, feats)


def test_criterion_1_metric_exactness(criterion_report):
    rng = np.random.default_rng(20240901)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(4, 13)))
        for got, want in (
            (compute_betweenness(g), betweenness_bruteforce(g)),
            (compute_avg_path_length(g), avg_path_length_bruteforce(g)),
            (compute_clustering(g), clustering_bruteforce(g)),
        ):
            worst = max(worst, float(np.abs(np.asarray(got) - np.asarray(want)).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    criterion_report("01 metric exactness vs brute force",
                     ok, f"max |err| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_closed_form_fixtures(criterion_report):
    k3 = compute_all(build_graph(3, [(0, 1), (1, 2), (0, 2)]))
    p3 = compute_all(build_graph(3, [(0, 1), (1, 2)]))
    star = compute_all(build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))

    def row(f, i):
        return (f.k[i], f.k_nn[i], f.b[i], f.L[i], f.C[i])

    checks = [
        all(row(k3, i) == (2, 2, 0, 1, 1) for i in range(3)),
        row(p3, 1) == (2, 1, 1, 1, 0),
        row(p3, 0) == (1, 2, 0, 1.5, 0),
        row(star, 0) == (4, 1, 1, 1, 0),
        row(star, 1) == (1, 4, 0, 1.75, 0),
    ]
    criterion_report("02 closed-form fixtures (K3, P3, star)", all(checks))
    assert all(checks)


def test_criterion_3_generator_targets(criterion_report):
    t0 = time.time()
    n, m = 10000, 4
    hk = generate_hk(n, m=m, p_t=0.9, seed=derive_seed(0, 1))
    expected_edges = m * (n - m - 1) + m * (m + 1) // 2
    hk_ok = hk.num_edges == expected_edges and hk.mean_degree == 2 * expected_edges / n

    cnn_degs, cnn_assort = [], []
    for s in range(10):
        g = generate_cnn(n, u=0.75, seed=derive_seed(s, 1))
        cnn_degs.append(g.mean_degree)
        cnn_assort.append(degree_assortativity(g))
    deg_ok = all(7.0 <= d <= 9.0 for d in cnn_degs)
    assort_ok = sum(a > 0 for a in cnn_assort) >= 9
    elapsed = time.time() - t0
    ok = hk_ok and deg_ok and assort_ok and elapsed < 60.0
    criterion_report(
        "03 generator targets", ok,
        f"HK edges {hk.num_edges}=={expected_edges}, CNN <k> "
        f"[{min(cnn_degs):.2f},{max(cnn_degs):.2f}], assort>0 "
        f"{sum(a > 0 for a in cnn_assort)}/10, {elapsed:.1f}s")
    assert hk_ok and deg_ok and assort_ok
    assert elapsed < 60.0


def test_criterion_4_som_sanity(criterion_report):
    g = generate_hk(2000, m=4, p_t=0.9, seed=derive_seed(0, 1))
    norm, params = normalize_features(compute_all(g))
    qe_ok = assigned_ok = 0
    for seed in range(10):
        grid = train_som(norm, 5, 5, epochs=20, seed=seed, norm_params=params)
        qe_ok += int(grid.qe_final <= grid.qe_initial)
        a = assign_nodes(grid, norm)
        assigned_ok += int(a.n == g.n and (a.linear() < 25).all())

    clusters = np.vstack([np.zeros((100, 5)), np.ones((100, 5))])
    disjoint = 0
    for seed in range(10):
        grid = train_som(clusters, 5, 5, epochs=20, seed=seed)
        lin = assign_nodes(grid, clusters).linear()
        disjoint += int(set(lin[:100].tolist()).isdisjoint(lin[100:].tolist()))

    ok = assigned_ok == 10 and qe_ok == 10 and disjoint >= 9
    criterion_report("04 SOM sanity", ok,
                     f"assigned {assigned_ok}/10, qe improved {qe_ok}/10, "
                     f"cluster separation {disjoint}/10")
    assert ok


def test_criterion_5_heatmap_gradients(criterion_report):
    argmax_hits = spearman_hits = 0
    rhos = []
    for master in range(10):
        g = generate_hk(10000, m=4, p_t=0.9, seed=derive_seed(master, 1))
        _, _, _, stats = som_pipeline(g, master)
        occ = ~stats.empty
        mean_k, mean_b, mean_c = (stats.means[:, j] for j in (0, 2, 4))
        argmax_hits += int(np.nanargmax(mean_b) == np.nanargmax(mean_k))
        rho = spearmanr(mean_c[occ], mean_k[occ]).statistic
        rhos.append(rho)
        spearman_hits += int(rho <= -0.4)
    ok = argmax_hits >= 7 and spearman_hits >= 7
    criterion_report(
        "05 heat-map gradients (HK n=10000)", ok,
        f"argmax(b)==argmax(k) {argmax_hits}/10, "
        f"spearman(C,k)<=-0.4 {spearman_hits}/10 "
        f"(mean rho {np.mean(rhos):+.3f})")
    assert ok


def test_criterion_6_sir_invariants(criterion_report):
    ok = True
    for seed in (0, 1, 2):
        g = generate_hk(500, m=4, p_t=0.9, seed=seed)
        trace = run_sir(g, one_cell(g.n), seed=seed)
        totals = [c.sum(axis=1) for c in trace.counts]
        ok &= all(t.sum() == g.n for t in totals)                      # conservation
        ok &= all(a[0] >= b[0] for a, b in zip(totals, totals[1:]))    # S down
        ok &= all(a[2] <= b[2] for a, b in zip(totals, totals[1:]))    # R up
        ok &= totals[-1][1] == 0                                       # termination
        lam0 = run_sir(g, one_cell(g.n), lam=0.0, n_initial=10, seed=seed)
        ok &= lam0.counts[-1].sum(axis=1).tolist() == [g.n - 10, 0, 10]
    criterion_report("06 SIR invariants (hard gate)", bool(ok))
    assert ok


def test_criterion_7_sir_two_node_oracle(criterion_report):
    g = build_graph(2, [(0, 1)])
    a = one_cell(2)
    t0 = time.time()
    hits = 0
    runs = 20000
    for s in range(runs):
        trace = run_sir(g, a, lam=0.2, mu=1.0, dt=0.01, n_initial=1, seed=s)
        hits += int(trace.counts[-1].sum(axis=1)[2] == 2)
    elapsed = time.time() - t0
    p = hits / runs
    ok = abs(p - 1 / 6) <= 0.02 and elapsed < 30.0
    criterion_report("07 SIR two-node oracle", ok,
                     f"p={p:.4f} vs 1/6={1/6:.4f}, {elapsed:.1f}s")
    assert abs(p - 1 / 6) <= 0.02
    assert elapsed < 30.0


def test_criterion_8_sir_structure_correlations(criterion_report):
    def terminal_r_fraction(stats, trace):
        occ = stats.counts > 0
        frac = np.zeros(stats.counts.size)
        frac[occ] = trace.counts[-1][2][occ] / stats.counts[occ]
        return frac, occ

    hk_b = []
    cnn_knn, cnn_L = [], []
    for master in range(10):
        g = generate_hk(2000, m=4, p_t=0.9, seed=derive_seed(master, 1))
        _, _, assignment, stats = som_pipeline(g, master)
        trace = run_sir(g, assignment, seed=derive_seed(master, 3))
        frac, occ = terminal_r_fraction(stats, trace)
        hk_b.append(spearmanr(stats.means[occ, 2], frac[occ]).statistic)

        g = generate_cnn(2000, u=0.75, seed=derive_seed(master, 1))
        _, _, assignment, stats = som_pipeline(g, master)
        trace = run_sir(g, assignment, seed=derive_seed(master, 3))
        frac, occ = terminal_r_fraction(stats, trace)
        cnn_knn.append(spearmanr(stats.means[occ, 1], frac[occ]).statistic)
        cnn_L.append(spearmanr(stats.means[occ, 3], frac[occ]).statistic)

    hk_mean, knn_mean, l_mean = (float(np.mean(x)) for x in (hk_b, cnn_knn, cnn_L))
    ok = hk_mean >= 0.5 and knn_mean >= 0.5 and l_mean <= -0.5
    criterion_report(
        "08 SIR structure-outcome correlations (soft gate)", ok,
        f"HK rho(b,R)={hk_mean:+.3f}, CNN rho(k_nn,R)={knn_mean:+.3f}, "
        f"CNN rho(L,R)={l_mean:+.3f} over 10 seeds each")
    assert ok


def test_criterion_9_spd_invariants(criterion_report):
    ok = True
    # all-C and all-D are fixed points
    g = generate_hk(300, m=4, p_t=0.9, seed=5)
    for init in ("all_c", "all_d"):
        trace = run_spd(g, one_cell(g.n), init=init, seed=0)
        ok &= len(trace.times) == 2
        ok &= np.array_equal(trace.counts[0], trace.counts[1])
    # 2-node trajectory (C,D) -> (D,D) -> fixed
    g2 = build_graph(2, [(0, 1)])
    s = np.array([C, D], dtype=np.int8)
    p = play_round(g2, s, T=1.5, eps=0.0)
    ok &= p.tolist() == [0.0, 1.5]
    s2 = update_strategies(g2, s, p)
    ok &= s2.tolist() == [D, D]
    ok &= update_strategies(g2, s2, play_round(g2, s2)).tolist() == [D, D]
    # synchrony: node-processing-order invariance on random graphs
    rng = np.random.default_rng(99)
    for _ in range(10):
        gg = random_connected_graph(rng, int(rng.integers(5, 40)))
        strat = (rng.random(gg.n) < 0.5).astype(np.int8)
        pay = play_round(gg, strat)
        got = update_strategies(gg, strat, pay)
        for _ in range(3):
            ok &= np.array_equal(
                got, reference_update(gg, strat, pay, rng.permutation(gg.n)))
    # strategy closure over full runs
    for seed in range(5):
        gg = generate_hk(200, m=3, p_t=0.5, seed=seed)
        trace = run_spd(gg, one_cell(gg.n), seed=seed, max_rounds=50)
        gone = {C: False, D: False}
        for counts in trace.counts:
            for st in (C, D):
                if gone[st]:
                    ok &= counts[st].sum() == 0
                elif counts[st].sum() == 0:
                    gone[st] = True
    criterion_report("09 SPD invariants (hard gate)", bool(ok))
    assert ok


def test_criterion_10_spd_defector_survival(criterion_report):
    qualifying = 0
    d_knn, c_knn = [], []
    fracs = []
    for master in range(20):
        g = generate_hk(2000, m=4, p_t=0.9, seed=derive_seed(master, 1))
        # one cell per node makes the trace expose per-node final strategies
        identity = CellAssignment(width=g.n, height=1,
                                  x=np.arange(g.n, dtype=np.int64),
                                  y=np.zeros(g.n, dtype=np.int64))
        trace = run_spd(g, identity, T=1.5, eps=0.0,
                        seed=derive_seed(master, 4), max_rounds=100)
        final_c = trace.counts[-1][C].astype(bool)
        coop_frac = final_c.mean()
        fracs.append(float(coop_frac))
        if coop_frac <= 0.6:
            continue
        qualifying += 1
        knn = compute_avg_neighbor_degree(g)
        d_knn.extend(knn[~final_c].tolist())
        c_knn.extend(knn[final_c].tolist())
    pooled_d = float(np.mean(d_knn)) if d_knn else float("nan")
    pooled_c = float(np.mean(c_knn)) if c_knn else float("nan")
    ok = qualifying > 0 and len(d_knn) > 0 and pooled_d < pooled_c
    criterion_report(
        "10 SPD defectors survive at low k_nn (soft gate)", ok,
        f"{qualifying}/20 runs cooperator-dominant; pooled k_nn: defectors "
        f"{pooled_d:.2f} vs cooperators {pooled_c:.2f}; final C fractions "
        f"{[round(f, 3) for f in fracs]}")
    assert ok


# sha256 of every file in the criterion-11 report directory. A change that
# alters these bytes on purpose updates this table and says why in CHANGES.md.
CRITERION_11_DIGESTS = {
    "config.json":
        "eecd6f4969143c7ab3d10a4bb5aca233658429c0204095048fdd2b4a255bea3b",
    "features.csv":
        "a0761d02e524923fc0080966d5be1667c8151b36e3c8a499fe6d88e77f72a830",
    "features.csv.meta.json":
        "738da49145c30a9b2a3e391b91e958f1f8f5bb1053e30dda37930099d3dd5841",
    "heatmap_hk.svg":
        "6b2313d682adf44a134509538b2f69f0720282d43feafc9edc889932b980fa91",
    "heatmap_hk.svg.meta.json":
        "aa6275beb2f9886a636d794afd8032a6d7037c21dafe9bff30ffbe785be4f87f",
    "hk.assign.csv":
        "7412d06004b32964c6948ec4e00afe36cfb1bdc8adfea5fc2c7b3a6a27571abb",
    "hk.assign.csv.meta.json":
        "792b74b89f467dfc3ec960210de794a2291609c2ae64d91e462a9b92cb735202",
    "hk.cells.csv":
        "4ba42faac466a4067913a8f5604bc7486dca954843f6967e9c2ceab2bb41f1df",
    "hk.cells.csv.meta.json":
        "f5114df2d181fd01a1161bd34bbf8e85ca14fc013b3f5c5f0cc2015848ae0d6b",
    "hk.edges":
        "f54c496387fd7cd382badb98bde1f43db63ac69b211a08ab8774d4d6dff93023",
    "hk.edges.meta.json":
        "5cca4790e8cdfef1c6ff9a71e633217544989b505d7d0463ddfb3aacbb732554",
    "hk.som.json":
        "bec8e35913d37ae2e9c42175b0cb8108d339340d8828849e20a6d1160609b2db",
    "hk.som.json.meta.json":
        "a110b4d7be48cf7ea94e0f2435b7dbdc09241f445b98eca1e27e5bd60907825c",
    "pies_sir_10.2.svg":
        "7f956c03563e4c54945281d36f1ed5a9d3322c9cf6ce66db7185d41674b83162",
    "pies_sir_10.2.svg.meta.json":
        "60738e0915fca8de80b6bdc2673c0fb068d36954781e030ea3f8d4d1b080e6e7",
    "pies_spd_5.svg":
        "bf5df21a39130d7f4214b3c5a2f7a725c48ed088c3a9f112a2e6263149b9c7cc",
    "pies_spd_5.svg.meta.json":
        "0d5a92cb9fb3f25410d20d8363bf090aaa5de00db21d0fe28d6872374d0a45e4",
    "sir_trace.csv":
        "f6aa82173564b0bb24fbafc00cced61858e630a6e1bea1cda75ce8c150f14dc0",
    "sir_trace.csv.meta.json":
        "7c35554fbe0bc0c18afdc38c55946d08cd04d18e66c249bf06a3929ebc36842c",
    "spd_trace.csv":
        "39a34cfb29809133de752d5c69e04b8df2df49f5563dc3e52328477edcc255ba",
    "spd_trace.csv.meta.json":
        "0addce8b0b6ba92fd73b83368e3d775d8ae8c810d2580635dd02bf4a24a05469",
    "summary.json":
        "9bfafece069e6cef52353848237e7b7beae2874c1c51e3c97f5e29d7ac729fee",
    "timeline_sir.svg":
        "04de315f0196b9aead8eb78dbec71d96a3b9f8978dd26d6ee29756e61017b89a",
    "timeline_sir.svg.meta.json":
        "6f5c161b5e9f25e4500abbf7ae4d399dd7f02455af3e93b76682e0fc5cda398a",
    "timeline_spd.svg":
        "e59fd6b6e6231d444ca8ff15dcbbee152076b2f1993ed134bff21e8ce886df0d",
    "timeline_spd.svg.meta.json":
        "267f8b2cff5a13e57e7000397ef820dd0f86934b1cc10613b84d12f25b9c1a8f",
}


def test_criterion_11_rendering_and_determinism(criterion_report, tmp_path):
    config = {"seed": 3, "generate": {"model": "hk", "n": 400}}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    full_run(config, out_a, echo=lambda *_: None)
    full_run(config, out_b, echo=lambda *_: None)
    digests = [{p.name: sha256_file(p) for p in sorted(d.iterdir())}
               for d in (out_a, out_b)]
    deterministic = digests[0] == digests[1]
    pinned = digests[0] == CRITERION_11_DIGESTS

    svgs = sorted(out_a.glob("*.svg"))
    xml_ok = True
    for p in svgs:
        try:
            ET.fromstring(p.read_text())
        except ET.ParseError:
            xml_ok = False

    angle_ok = True
    for name in ("timeline_sir.svg", "timeline_spd.svg"):
        for total in per_pie_angle_sums((out_a / name).read_text()):
            angle_ok &= abs(total - 360.0) <= 1e-6

    # hottest heat-map cell matches the argmax of the cells CSV
    from netsom.som import read_cell_stats_csv
    stats = read_cell_stats_csv(out_a / "hk.cells.csv")
    svg = (out_a / "heatmap_hk.svg").read_text()
    fills = {m["id"]: m["fill"] for m in RECT_ID_RE.finditer(svg)}
    vals = stats.means[:, 2]
    occ = ~stats.empty
    hot_lin = int(np.nanargmax(np.where(occ, vals, -np.inf)))
    hot_id = f"b-{hot_lin % stats.width}-{hot_lin // stats.width}"
    hottest_ok = fills[hot_id] == ramp_color(
        float(np.nanmax(vals[occ])), float(np.nanmin(vals[occ])),
        float(np.nanmax(vals[occ])))

    ok = deterministic and pinned and xml_ok and angle_ok and hottest_ok
    criterion_report(
        "11 rendering validity and pipeline determinism", ok,
        f"xml {xml_ok}, angles {angle_ok}, hottest-cell {hottest_ok}, "
        f"byte-identical reruns {deterministic}, pinned digests {pinned} "
        f"({len(svgs)} SVGs)")
    assert ok
