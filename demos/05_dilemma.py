"""Spatial prisoner's dilemma with synchronous imitate-the-wealthiest moves.

Every agent plays each neighbor once per round (C/C pays 1, D exploiting C
pays 1.5) and then copies its richest neighbor if that neighbor did
strictly better. Outcomes are bimodal: defection usually sweeps the
network, but when cooperation wins, the last defectors cling to cells with
the lowest mean neighbor degree.

Run:  python3 demos/05_dilemma.py
"""

import pathlib

import numpy as np

from netsom import (categorize, compute_all, compute_avg_neighbor_degree,
                    generate_hk, render_timeline, run_spd)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

g = generate_hk(2000, m=4, p_t=0.9, seed=3405998857)  # a cooperator-friendly draw
_, assignment, stats = categorize(compute_all(g), 5, 5, epochs=20, seed=7)

trace = run_spd(g, assignment, T=1.5, eps=0.0, seed=4263328254, max_rounds=100)
print(f"stopped after round {int(trace.terminal_time)}")

print("\nround   C      D")
for i in range(len(trace.times)):
    c, d = trace.totals(i)
    if i < 12 or i == len(trace.times) - 1:
        print(f"{int(trace.times[i]):>5} {c:>6} {d:>6}")

c, d = trace.totals(len(trace.times) - 1)
if c > d:
    knn = compute_avg_neighbor_degree(g)
    occ = stats.counts > 0
    d_frac = np.zeros(25)
    d_frac[occ] = trace.counts[-1][1][occ] / stats.counts[occ]
    print("\ncells where defectors persist (defector share vs cell mean k_nn):")
    for lin in np.argsort(-d_frac)[:3]:
        print(f"  cell ({lin % 5},{lin // 5}): D share {d_frac[lin]:.3f}, "
              f"mean k_nn {stats.means[lin, 1]:.2f}")
    print(f"grid-wide mean k_nn: {knn.mean():.2f}")

svg = render_timeline(trace, list(range(0, int(trace.terminal_time) + 1, 2)))
(OUT / "timeline_spd.svg").write_text(svg)
print(f"\nwrote {OUT / 'timeline_spd.svg'}")
