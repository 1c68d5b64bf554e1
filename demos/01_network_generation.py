"""Generate the two growth-model networks and look at their basic shape.

The first model grows by preferential attachment with triad formation,
which piles up triangles around hubs; the second converts "potential links"
between a newcomer and its target's neighbors, which makes similar-degree
nodes attach to each other. Both are tuned for a mean degree near 8.

Run:  python3 demos/01_network_generation.py
"""

import pathlib

import numpy as np

from netsom import compute_clustering, generate_cnn, generate_hk, save_edge_list

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

n = 3000

hk = generate_hk(n, m=4, p_t=0.9, seed=42)
cnn = generate_cnn(n, u=0.75, seed=42)

for name, g in (("hk", hk), ("cnn", cnn)):
    deg = g.degrees
    # degree assortativity: the Pearson correlation of end-point degrees
    # over every edge, in both orientations
    src, dst = g.directed_edges()
    assortativity = np.corrcoef(deg[src], deg[dst])[0, 1]
    print(f"{name}: n={g.n} edges={g.num_edges} <k>={g.mean_degree:.3f} "
          f"k_max={deg.max()}")
    print(f"     mean clustering {compute_clustering(g).mean():.3f}, "
          f"assortativity {assortativity:+.3f}")
    save_edge_list(g, OUT / f"{name}.edges")
    print(f"     wrote {OUT / f'{name}.edges'}")

# degree distributions side by side: scale-free tails for both
print("\ndegree histogram (log2 bins):")
print(f"{'bin':>12} {'hk':>6} {'cnn':>6}")
edges = [2 ** i for i in range(1, 11)]
hk_counts, _ = np.histogram(hk.degrees, bins=edges)
cnn_counts, _ = np.histogram(cnn.degrees, bins=edges)
for i in range(len(edges) - 1):
    print(f"{edges[i]:>5}-{edges[i+1]:<6} {hk_counts[i]:>6} {cnn_counts[i]:>6}")
