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

from netsom import (assign_nodes, build_graph, categorize, compute_all,
                    compute_avg_neighbor_degree, compute_clustering,
                    generate_cnn, generate_hk,
                    normalize_features, play_round, ramp_color,
                    run_sir, run_spd, train_som, update_strategies)
from netsom.pipeline import derive_seed, full_run, sha256_file
from netsom.som import CellAssignment
from netsom.spd import C, D
from conftest import random_connected_graph
from oracles import (avg_path_length_bruteforce, betweenness_bruteforce,
                     clustering_bruteforce, degree_assortativity)
from test_render import RECT_ID_RE, per_pie_angle_sums
from test_spd import reference_update

pytestmark = pytest.mark.acceptance


def one_cell(n):
    z = np.zeros(n, dtype=np.int64)
    return CellAssignment(width=1, height=1, x=z, y=z)


def som_pipeline(graph, master):
    """(grid, assignment, stats) of the graph's features, pipeline-seeded."""
    return categorize(compute_all(graph), 5, 5, epochs=20,
                      seed=derive_seed(master, 2))


def test_criterion_1_metric_exactness(criterion_report):
    rng = np.random.default_rng(20240901)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(4, 13)))
        f = compute_all(g)
        for got, want in (
            (f.b, betweenness_bruteforce(g)),
            (f.L, avg_path_length_bruteforce(g)),
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
    norm, params = normalize_features(compute_all(g).as_matrix())
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
        _, _, stats = som_pipeline(g, master)
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
        _, assignment, stats = som_pipeline(g, master)
        trace = run_sir(g, assignment, seed=derive_seed(master, 3))
        frac, occ = terminal_r_fraction(stats, trace)
        hk_b.append(spearmanr(stats.means[occ, 2], frac[occ]).statistic)

        g = generate_cnn(2000, u=0.75, seed=derive_seed(master, 1))
        _, assignment, stats = som_pipeline(g, master)
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
    for strategy in (C, D):
        every = np.full(g.n, strategy, dtype=np.int8)
        ok &= np.array_equal(update_strategies(g, every, play_round(g, every)), every)
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
        "ed3742f9e9ce7f1fcc04bb8c69a66e5e75f37e813081e1d5485703e32599bfaa",
    "heatmap_hk.svg.meta.json":
        "9935607e5e9c4533c2a66780266cc5c2cae07f0ca22d05ba8a9bffd832570873",
    "hk.assign.csv":
        "12344c31677dab5703304937039188cbcb69eee6894d4925d69cab930864b07b",
    "hk.assign.csv.meta.json":
        "adbfe7ac3960ef9971c58795318855e02f755149f9a1c8fdec568979b7e65269",
    "hk.cells.csv":
        "913cadb294606d3601983c3ff6a5b847d395eddba697cdac1d160e77553404bd",
    "hk.cells.csv.meta.json":
        "a286d59c834bd5e5aca18b6273dc8d1c8dd6f135e389a0c40dcb93284181c973",
    "hk.edges":
        "f54c496387fd7cd382badb98bde1f43db63ac69b211a08ab8774d4d6dff93023",
    "hk.edges.meta.json":
        "5cca4790e8cdfef1c6ff9a71e633217544989b505d7d0463ddfb3aacbb732554",
    "hk.som.json":
        "4dcdd4c1337b59ce4a377bdd7d8a7282e4fa559d213ecf41d3daf3c527f22835",
    "hk.som.json.meta.json":
        "c8780560e099e88c477615a915885bf76f49175b987f99385bfcc71912b9fb99",
    "pies_sir_10.2.svg":
        "cbdba9d66e4fa1468323139fa917fa12b24c7dc01794ff1b96e62cb928abd94c",
    "pies_sir_10.2.svg.meta.json":
        "fed1670148935c1383d0900460fbcb59c3ca373ce7f5c3157ac24e050da8e75a",
    "pies_spd_5.svg":
        "079c412b006b64316ca85f5a4f0e76532e1b03cf046041c512bd687be76d8d2f",
    "pies_spd_5.svg.meta.json":
        "bd57449953391bf7c54d5aa55ad009eb50ecc8e13e51c7891ad6742f3ca04c12",
    "sir_trace.csv":
        "3bade53be661e8b34ae0d1418b1c195ea974f90c253098cb7533d48158e06696",
    "sir_trace.csv.meta.json":
        "c9951f0254eed6ce51b1bb1780bb4a1d0ce2f4267593adba6a256ba9150bd5fe",
    "spd_trace.csv":
        "c448bb89c4a3bcb8e03e47caf020b6470ec44c3b52b8a9504654c8a0f248cecd",
    "spd_trace.csv.meta.json":
        "84a2bf885b5b15d9b262d70b95dd2067e993f1bca9e2098342a83f9fab39df76",
    "summary.json":
        "f0138e06066c6d06b6ec06c1d1ee1b8da8900566fed780593d60f2abad0a03b8",
    "timeline_sir.svg":
        "0c9ac8b59a47c7d19bbb5592568a9aec055282a75dbcc48620c34488dbaceb7f",
    "timeline_sir.svg.meta.json":
        "b615d61c4a437ee9e653dddff14201a650b0b2bb83c4d860039236e53414ff18",
    "timeline_spd.svg":
        "402cf8af9344faf3d89b15d8b5f257133e0cb8ebbfdd1f3377fc3c9f5b1837dc",
    "timeline_spd.svg.meta.json":
        "1bebe6c58a4713c26afea372d15764e672aa75a3b09f5b1825a97200722ce131",
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
