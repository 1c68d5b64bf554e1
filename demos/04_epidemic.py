"""Run the asynchronous SIR epidemic and watch it move across categories.

Ten random agents start infectious; each sweep performs N random picks
where susceptibles catch the infection from infectious neighbors and
infectious agents recover. Aggregating states per SOM cell shows the
outbreak igniting in the hub categories and draining outward.

Run:  python3 demos/04_epidemic.py
"""

import pathlib

import numpy as np

from netsom import categorize, compute_all, generate_hk, render_timeline, run_sir

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

g = generate_hk(3000, m=4, p_t=0.9, seed=42)
_, assignment, stats = categorize(compute_all(g), 5, 5, epochs=20, seed=7)

trace = run_sir(g, assignment, lam=0.2, mu=1.0, dt=0.01, n_initial=10, seed=11)
print(f"epidemic over at t={trace.terminal_time:g} "
      f"({len(trace.times)} snapshots)")

print("\n   t      S     I     R")
for i in range(0, len(trace.times), max(1, len(trace.times) // 12)):
    s, inf, r = trace.totals(i)
    print(f"{trace.times[i]:>6.2f} {s:>6} {inf:>5} {r:>5}")
s, inf, r = trace.totals(len(trace.times) - 1)
print(f"{trace.terminal_time:>6.2f} {s:>6} {inf:>5} {r:>5}  (terminal)")

# where did the epidemic reach? terminal R fraction per cell vs mean b
occ = stats.counts > 0
r_frac = np.zeros(25)
r_frac[occ] = trace.counts[-1][2][occ] / stats.counts[occ]
top = np.argsort(-r_frac)[:3]
print("\nhardest-hit cells (terminal R fraction vs cell mean betweenness):")
for lin in top:
    print(f"  cell ({lin % 5},{lin // 5}): R {r_frac[lin]:.2f}, "
          f"mean b {stats.means[lin, 2]:.4f}")

svg = render_timeline(trace, [0.0, 1.0, 2.0, 4.0, trace.terminal_time])
(OUT / "timeline_sir.svg").write_text(svg)
print(f"\nwrote {OUT / 'timeline_sir.svg'}")
