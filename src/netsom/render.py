"""Standalone SVG renderings: per-component heat maps of the lattice cells,
and pie-chart lattices showing per-cell state fractions over time.

All output is plain SVG 1.1 text built with fixed number formatting, so a
given input always produces byte-identical documents. Lattice orientation
follows the category map convention: X increases rightward, Y upward.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_CONFIG, check
from .simtrace import SimTrace
from .som import CellStats

CELL = 40          # heat-map cell edge, px
PIE_CELL = 44      # pie-lattice cell pitch, px
PIE_RADIUS = 17.0
_RADIUS_MODE = DEFAULT_CONFIG["render"]["radius_mode"]

# documented fixed palettes; the epidemic and game states never mix in one chart
SIR_PALETTE = {"S": "#4a79c4", "I": "#d64541", "R": "#9a9a9a"}
SPD_PALETTE = {"C": "#3f9a5f", "D": "#d6803f"}
_FALLBACK_COLORS = ("#4a79c4", "#d64541", "#3f9a5f", "#d6803f", "#9467bd")

EMPTY_FILL = "#e0e0e0"

# sequential ramp (light -> dark) for heat maps
_RAMP_STOPS = ((255, 255, 229), (254, 217, 118), (236, 112, 20), (102, 37, 6))


def ramp_color(value: float, vmin: float, vmax: float) -> str:
    """Linear color for ``value`` on the min->max ramp; a degenerate range
    (vmin == vmax) maps to the hottest color."""
    if vmax <= vmin:
        t = 1.0
    else:
        t = (value - vmin) / (vmax - vmin)
        t = min(1.0, max(0.0, t))
    pos = t * (len(_RAMP_STOPS) - 1)
    i = min(int(pos), len(_RAMP_STOPS) - 2)
    f = pos - i
    lo, hi = _RAMP_STOPS[i], _RAMP_STOPS[i + 1]
    rgb = tuple(round(lo[c] + (hi[c] - lo[c]) * f) for c in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def default_palette(state_names: tuple[str, ...]) -> tuple[str, ...]:
    known = {**SIR_PALETTE, **SPD_PALETTE}
    return tuple(known.get(name, _FALLBACK_COLORS[i % len(_FALLBACK_COLORS)])
                 for i, name in enumerate(state_names))


def _svg_doc(width: float, height: float, body: str) -> str:
    return ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width:g}" height="{height:g}" '
            f'viewBox="0 0 {width:g} {height:g}">\n'
            f'{body}</svg>\n')


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle",
          extra: str = "") -> str:
    s = s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return (f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size}" text-anchor="{anchor}"{extra}>{s}</text>\n')


def _axis_ticks(width: int, height: int, cell: float, ox: float = 0.0,
                oy: float = 0.0) -> str:
    """Cell-index labels of a lattice whose top-left corner is (ox, oy): X
    under each column, Y left of each row, with Y pointing upward."""
    xs = [_text(ox + (x + 0.5) * cell, oy + height * cell + 12, str(x), size=10)
          for x in range(width)]
    ys = [_text(ox - 5, oy + (height - 1 - y + 0.5) * cell + 4, str(y), size=10,
                anchor="end") for y in range(height)]
    return "".join(xs + ys)


# ---------------------------------------------------------------------------
# heat maps


_PANEL_ML = 30   # room for Y tick labels
_PANEL_MT = 22   # room for the panel title
_PANEL_MB = 56   # X ticks plus legend strip
_PANEL_MR = 12


def render_heatmaps(stats: CellStats) -> str:
    """One panel per quantity: node count first, then each feature column.

    Cells are colored on a linear ramp over the populated cells of that
    panel; empty cells get a neutral fill. Each panel carries min/max legend
    labels. Returns the SVG document text.
    """
    if stats.empty.all():
        raise ValueError("cannot render heat maps: every cell is empty")
    panels: list[tuple[str, np.ndarray]] = [("count", stats.counts.astype(np.float64))]
    panels.extend((name, stats.means[:, j])
                  for j, name in enumerate(stats.feature_names))

    per_row = 3
    pw = _PANEL_ML + stats.width * CELL + _PANEL_MR
    ph = _PANEL_MT + stats.height * CELL + _PANEL_MB
    n_rows = math.ceil(len(panels) / per_row)
    doc_w = per_row * pw + 16
    doc_h = n_rows * ph + 12

    body = []
    populated = ~stats.empty
    for idx, (key, values) in enumerate(panels):
        ox = 8 + (idx % per_row) * pw
        oy = 8 + (idx // per_row) * ph
        body.append(_heatmap_panel(key, values, populated, stats.width,
                                   stats.height, ox, oy))
    return _svg_doc(doc_w, doc_h, "".join(body))


def _heatmap_panel(key: str, values: np.ndarray, populated: np.ndarray,
                   width: int, height: int, ox: float, oy: float) -> str:
    title = "nodes per cell" if key == "count" else key
    vals = values[populated]
    vmin, vmax = float(vals.min()), float(vals.max())
    gx0 = ox + _PANEL_ML
    gy0 = oy + _PANEL_MT
    out = [_text(gx0 + width * CELL / 2, oy + 14, title, size=12,
                 extra=' font-weight="bold"')]
    for lin in range(width * height):
        x, y = lin % width, lin // width
        fill = ramp_color(values[lin], vmin, vmax) if populated[lin] else EMPTY_FILL
        px = gx0 + x * CELL
        py = gy0 + (height - 1 - y) * CELL  # Y axis points upward
        out.append(f'<rect id="{key}-{x}-{y}" x="{px:.2f}" y="{py:.2f}" '
                   f'width="{CELL}" height="{CELL}" fill="{fill}" '
                   f'stroke="#ffffff" stroke-width="1"/>\n')
    out.append(_axis_ticks(width, height, CELL, gx0, gy0))
    out.append(_text(gx0 + width * CELL / 2, gy0 + height * CELL + 26, "X", size=10))
    out.append(_text(gx0 - 18, gy0 + height * CELL / 2, "Y", size=10))
    # legend: discrete gradient strip with numeric endpoints
    ly = gy0 + height * CELL + 34
    steps = 24
    sw = width * CELL / steps
    for s in range(steps):
        frac = s / (steps - 1)
        color = ramp_color(vmin + frac * (vmax - vmin), vmin, vmax)
        out.append(f'<rect x="{gx0 + s * sw:.2f}" y="{ly:.2f}" '
                   f'width="{sw + 0.5:.2f}" height="8" fill="{color}"/>\n')
    if vmin == vmax:
        out.append(_text(gx0 + width * CELL / 2, ly + 18, f"min=max={vmin:.6g}", size=9))
    else:
        out.append(_text(gx0, ly + 18, f"{vmin:.6g}", size=9, anchor="start"))
        out.append(_text(gx0 + width * CELL, ly + 18, f"{vmax:.6g}", size=9, anchor="end"))
    return "".join(out)


# ---------------------------------------------------------------------------
# pie lattices


def _pie_sectors(cx: float, cy: float, r: float, fracs: list[float],
                 colors: tuple[str, ...]) -> str:
    """Sector paths with angles exactly proportional to the fractions,
    starting at 12 o'clock and sweeping clockwise."""
    out = []
    theta = -0.5 * math.pi
    for frac, color in zip(fracs, colors):
        if frac <= 0.0:
            continue
        if frac >= 1.0 - 1e-12:
            out.append(f'<circle cx="{cx:.9f}" cy="{cy:.9f}" r="{r:.9f}" '
                       f'fill="{color}"/>\n')
            theta += 2.0 * math.pi
            continue
        span = frac * 2.0 * math.pi
        x0, y0 = cx + r * math.cos(theta), cy + r * math.sin(theta)
        x1, y1 = cx + r * math.cos(theta + span), cy + r * math.sin(theta + span)
        large = 1 if span > math.pi else 0
        out.append(f'<path d="M {cx:.9f} {cy:.9f} L {x0:.9f} {y0:.9f} '
                   f'A {r:.9f} {r:.9f} 0 {large} 1 {x1:.9f} {y1:.9f} Z" '
                   f'fill="{color}"/>\n')
        theta += span
    return "".join(out)


def _pie_panel(counts: np.ndarray, width: int, height: int,
               colors: tuple[str, ...], radius_mode: str, ox: float,
               oy: float) -> str:
    """Lattice of pies with its axis labels, in a group whose origin (ox, oy)
    is the top-left of the cell grid. Empty cells draw nothing."""
    check("render", {"radius_mode": radius_mode})
    totals = counts.sum(axis=0)
    max_total = int(totals.max()) if totals.size else 0
    out = [f'<g transform="translate({ox},{oy})">\n']
    for lin in range(width * height):
        total = int(totals[lin])
        if total == 0:
            continue
        x, y = lin % width, lin // width
        cx = (x + 0.5) * PIE_CELL
        cy = (height - 1 - y + 0.5) * PIE_CELL  # Y axis points upward
        r = PIE_RADIUS
        if radius_mode == "population":
            r = PIE_RADIUS * math.sqrt(total / max_total)
        fracs = [counts[s, lin] / total for s in range(counts.shape[0])]
        out.append(_pie_sectors(cx, cy, r, fracs, colors))
    out.append(_axis_ticks(width, height, PIE_CELL))
    out.append('</g>\n')
    return "".join(out)


def _legend(state_names: tuple[str, ...], colors: tuple[str, ...],
            ox: float, oy: float) -> str:
    out = []
    x = ox
    for name, color in zip(state_names, colors):
        out.append(f'<rect x="{x:.2f}" y="{oy:.2f}" width="12" height="12" '
                   f'fill="{color}"/>\n')
        out.append(_text(x + 16, oy + 10, name, size=11, anchor="start"))
        x += 16 + 10 * max(1, len(name)) + 14
    return "".join(out)


def render_pie_lattice(trace: SimTrace, t: float,
                       radius_mode: str = _RADIUS_MODE) -> str:
    """Pie-chart lattice for the snapshot nearest ``t``: sector angles are
    proportional to each state's share of the cell's agents; empty cells
    stay blank. The caption shows the snapshot's true time."""
    idx = trace.nearest_index(t)
    colors = default_palette(trace.state_names)
    ml, mt = 24, 30
    gw, gh = trace.width * PIE_CELL, trace.height * PIE_CELL
    body = [_legend(trace.state_names, colors, ml, 8),
            _text(ml + gw, 18, f"{trace.time_label} = {trace.times[idx]:g}",
                  size=12, anchor="end"),
            _pie_panel(trace.counts[idx], trace.width, trace.height, colors,
                       radius_mode, ml, mt)]
    return _svg_doc(ml + gw + 12, mt + gh + 22, "".join(body))


def render_timeline(trace: SimTrace, times: list[float],
                    radius_mode: str = _RADIUS_MODE) -> str:
    """Sequence of pie lattices at the selected times, sharing one legend.

    Each requested time maps to the nearest recorded snapshot; the caption
    shows the snapshot's true time.
    """
    if not times:
        raise ValueError("no times selected")
    colors = default_palette(trace.state_names)
    per_row = 5
    indices = [trace.nearest_index(t) for t in times]

    ml, mt = 24, 30
    gw, gh = trace.width * PIE_CELL, trace.height * PIE_CELL
    pw = ml + gw + 16
    ph = mt + gh + 24
    n_rows = math.ceil(len(indices) / per_row)
    doc_w = min(len(indices), per_row) * pw + 8
    doc_h = n_rows * ph + 28

    body = [_legend(trace.state_names, colors, 12, 8)]
    for i, snap_idx in enumerate(indices):
        ox = 4 + (i % per_row) * pw + ml
        oy = 28 + (i // per_row) * ph + mt
        t_actual = trace.times[snap_idx]
        body.append(_text(ox + gw / 2, oy - 8,
                          f"{trace.time_label} = {t_actual:g}", size=11))
        body.append(_pie_panel(trace.counts[snap_idx], trace.width,
                               trace.height, colors, radius_mode, ox, oy))
    return _svg_doc(doc_w, doc_h, "".join(body))
