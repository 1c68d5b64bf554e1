"""Categorize nodes on a 5x5 self-organizing map and render heat maps.

Feature vectors are min-max normalized and trained with Kohonen's batch map,
no learning rate; every node then maps to its best-matching cell. The heat
maps show how each raw feature varies across the lattice: with these
networks, degree and betweenness concentrate in one corner and clustering
runs opposite.

Run:  python3 demos/03_som_categories.py
"""

import pathlib

import numpy as np

from netsom import categorize, compute_all, generate_hk, render_heatmaps

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

g = generate_hk(3000, m=4, p_t=0.9, seed=42)
grid, assignment, stats = categorize(compute_all(g), width=5, height=5,
                                     epochs=20, seed=7)
print(f"trained 5x5 map: quantization error {grid.qe_initial:.4f} -> "
      f"{grid.qe_final:.4f}")

print("\nnodes per cell (Y up, X right):")
counts = stats.counts.reshape(5, 5)
for y in range(4, -1, -1):
    print("  " + " ".join(f"{counts[y, x]:>5}" for x in range(5)))

occ = ~stats.empty
for j, name in enumerate(("k", "k_nn", "b", "L", "C")):
    lin = int(np.nanargmax(np.where(occ, stats.means[:, j], -np.inf)))
    print(f"max mean {name:<4} at cell ({lin % 5},{lin // 5}) "
          f"= {np.nanmax(stats.means[occ, j]):.4g}")

svg = render_heatmaps(stats)
(OUT / "heatmap_hk.svg").write_text(svg)
print(f"\nwrote {OUT / 'heatmap_hk.svg'}")
