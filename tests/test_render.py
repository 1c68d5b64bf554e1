import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from netsom import ramp_color, render_heatmaps, render_pie_lattice, render_timeline
from netsom.simtrace import SimTrace
from netsom.som import CellStats

PATH_RE = re.compile(
    r'<path d="M (?P<cx>\S+) (?P<cy>\S+) L (?P<x0>\S+) (?P<y0>\S+) '
    r'A (?P<r>\S+) \S+ 0 \d 1 (?P<x1>\S+) (?P<y1>\S+) Z"')
CIRCLE_RE = re.compile(r"<circle ")
RECT_ID_RE = re.compile(r'<rect id="(?P<id>[^"]+)"[^>]*fill="(?P<fill>[^"]+)"')


def sector_spans_degrees(svg: str) -> list[float]:
    """Angular span of every pie sector, full circles included as 360."""
    spans = [360.0] * len(CIRCLE_RE.findall(svg))
    for m in PATH_RE.finditer(svg):
        cx, cy = float(m["cx"]), float(m["cy"])
        a0 = math.atan2(float(m["y0"]) - cy, float(m["x0"]) - cx)
        a1 = math.atan2(float(m["y1"]) - cy, float(m["x1"]) - cx)
        spans.append(math.degrees((a1 - a0) % (2 * math.pi)))
    return spans


def per_pie_angle_sums(svg: str) -> list[float]:
    """Total sector angle of each pie; pies are keyed by center within their
    enclosing translated panel group."""
    out: list[float] = []
    for panel in svg.split('<g transform='):
        sums: dict[tuple[str, str], float] = {}
        for m in re.finditer(r'<circle cx="(\S+)" cy="(\S+)"', panel):
            key = (m.group(1), m.group(2))
            sums[key] = sums.get(key, 0.0) + 360.0
        for m in PATH_RE.finditer(panel):
            cx, cy = float(m["cx"]), float(m["cy"])
            a0 = math.atan2(float(m["y0"]) - cy, float(m["x0"]) - cx)
            a1 = math.atan2(float(m["y1"]) - cy, float(m["x1"]) - cx)
            key = (m["cx"], m["cy"])
            sums[key] = sums.get(key, 0.0) + math.degrees((a1 - a0) % (2 * math.pi))
        out.extend(sums.values())
    return out


def make_stats(counts, means):
    counts = np.asarray(counts)
    means = np.asarray(means, dtype=float)
    return CellStats(width=2, height=2, counts=counts, means=means,
                     feature_names=("k", "k_nn", "b", "L", "C"))


FULL_STATS = make_stats(
    [3, 2, 1, 4],
    [[2.0, 3.0, 0.1, 1.5, 0.3],
     [4.0, 2.5, 0.2, 1.2, 0.2],
     [6.0, 2.0, 0.4, 1.1, 0.1],
     [8.0, 1.5, 0.8, 1.0, 0.0]])


class TestHeatmaps:
    def test_valid_xml_and_deterministic(self):
        svg1 = render_heatmaps(FULL_STATS)
        svg2 = render_heatmaps(FULL_STATS)
        ET.fromstring(svg1)
        assert svg1 == svg2

    def test_hottest_cell_is_argmax(self):
        svg = render_heatmaps(FULL_STATS)
        fills = {m["id"]: m["fill"] for m in RECT_ID_RE.finditer(svg)}
        # b is maximal at linear cell 3 = (X=1, Y=1); ramp max color expected
        assert fills["b-1-1"] == ramp_color(1.0, 0.0, 1.0)
        vals = FULL_STATS.means[:, 2]
        expected = {f"b-{lin % 2}-{lin // 2}":
                    ramp_color(vals[lin], vals.min(), vals.max())
                    for lin in range(4)}
        for key, want in expected.items():
            assert fills[key] == want

    def test_empty_cells_neutral_and_flagged(self):
        stats = make_stats([5, 0, 0, 2],
                           [[1, 1, 1, 1, 1],
                            [np.nan] * 5,
                            [np.nan] * 5,
                            [3, 3, 3, 3, 3]])
        svg = render_heatmaps(stats)
        fills = {m["id"]: m["fill"] for m in RECT_ID_RE.finditer(svg)}
        from netsom.render import EMPTY_FILL
        assert fills["k-1-0"] == EMPTY_FILL
        assert fills["count-0-1"] == EMPTY_FILL
        assert fills["k-0-0"] != EMPTY_FILL

    def test_uniform_value_degenerate_ramp(self):
        stats = make_stats([1, 1, 1, 1], [[7, 1, 1, 1, 1]] * 4)
        svg = render_heatmaps(stats)
        fills = {m["id"]: m["fill"] for m in RECT_ID_RE.finditer(svg)}
        k_fills = {v for k, v in fills.items() if k.startswith("k-")}
        assert len(k_fills) == 1
        assert "min=max=7" in svg

    def test_single_populated_cell_is_ramp_max(self):
        stats = make_stats([0, 4, 0, 0],
                           [[np.nan] * 5, [2, 1, 1, 1, 1],
                            [np.nan] * 5, [np.nan] * 5])
        svg = render_heatmaps(stats)
        fills = {m["id"]: m["fill"] for m in RECT_ID_RE.finditer(svg)}
        assert fills["k-1-0"] == ramp_color(1.0, 0.0, 1.0)

    def test_all_empty_is_error(self):
        stats = make_stats([0, 0, 0, 0], [[np.nan] * 5] * 4)
        with pytest.raises(ValueError, match="empty"):
            render_heatmaps(stats)

    def test_ramp_color_pure_and_clamped(self):
        assert ramp_color(5.0, 0.0, 10.0) == ramp_color(5.0, 0.0, 10.0)
        assert ramp_color(3.0, 3.0, 3.0) == ramp_color(1.0, 0.0, 1.0)


def snapshot(counts, width, height, state_names, t=0.0):
    """A trace of the one snapshot ``counts`` at time ``t``."""
    trace = SimTrace(state_names=state_names, width=width, height=height)
    trace.append(t, np.asarray(counts))
    return trace


class TestPieLattice:
    def test_single_state_full_circle(self):
        counts = np.array([[4], [0], [0]])
        svg = render_pie_lattice(snapshot(counts, 1, 1, ("S", "I", "R")), 0.0)
        ET.fromstring(svg)
        spans = sector_spans_degrees(svg)
        assert spans == [360.0]

    def test_quarter_three_quarter_split(self):
        counts = np.array([[1], [3]])
        svg = render_pie_lattice(snapshot(counts, 1, 1, ("C", "D")), 0.0)
        spans = sector_spans_degrees(svg)
        assert spans[0] == pytest.approx(90.0, abs=1e-6)
        assert spans[1] == pytest.approx(270.0, abs=1e-6)

    def test_angles_sum_to_360_per_pie(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, size=(3, 6))
        counts[:, 2] = 0  # one empty cell
        svg = render_pie_lattice(snapshot(counts, 3, 2, ("S", "I", "R")), 0.0)
        spans = sector_spans_degrees(svg)
        pies = sum(1 for c in range(6) if counts[:, c].sum() > 0)
        assert sum(spans) == pytest.approx(360.0 * pies, abs=1e-6)

    def test_empty_cell_draws_nothing(self):
        counts = np.zeros((2, 4), dtype=int)
        counts[0, 1] = 5
        svg = render_pie_lattice(snapshot(counts, 2, 2, ("C", "D")), 0.0)
        assert len(sector_spans_degrees(svg)) == 1

    def test_population_radius_mode(self):
        counts = np.array([[8, 2], [0, 0]])
        svg = render_pie_lattice(snapshot(counts, 2, 1, ("C", "D")), 0.0,
                                 radius_mode="population")
        radii = sorted(float(m.group(1)) for m in
                       re.finditer(r'r="([0-9.]+)"', svg))
        assert radii[0] == pytest.approx(radii[1] / 2)  # sqrt(2/8) = 1/2

    def test_deterministic(self):
        counts = np.array([[3, 1], [2, 2], [1, 0]])
        a = render_pie_lattice(snapshot(counts, 2, 1, ("S", "I", "R"), 4.5), 4.5)
        b = render_pie_lattice(snapshot(counts, 2, 1, ("S", "I", "R"), 4.5), 4.5)
        assert a == b
        assert "t = 4.5" in a


def small_trace():
    trace = SimTrace(state_names=("S", "I", "R"), width=2, height=1,
                     time_label="t")
    trace.append(0.0, np.array([[5, 5], [1, 0], [0, 0]]))
    trace.append(1.0, np.array([[3, 4], [2, 1], [1, 0]]))
    trace.append(2.0, np.array([[2, 3], [0, 0], [4, 2]]))
    return trace


class TestTimeline:
    def test_valid_and_shared_panels(self):
        trace = small_trace()
        svg = render_timeline(trace, [0.0, 1.0, 2.0])
        ET.fromstring(svg)
        assert svg.count('<g transform="translate(') == 3

    @pytest.mark.parametrize("mode", ["fixed", "population"])
    @pytest.mark.parametrize("t", [1.0, 1.4])
    def test_single_lattice_is_the_one_time_timeline(self, mode, t):
        trace = small_trace()
        assert render_pie_lattice(trace, t, mode) == render_timeline(trace, [t], mode)

    def test_terminal_sir_panel_has_no_infectious_sector(self):
        trace = small_trace()
        svg = render_timeline(trace, [2.0])
        from netsom.render import SIR_PALETTE
        sector_fills = set(re.findall(r'<(?:path|circle)[^>]*fill="([^"]+)"', svg))
        assert SIR_PALETTE["I"] not in sector_fills
        assert {SIR_PALETTE["S"], SIR_PALETTE["R"]} <= sector_fills

    def test_nearest_snapshot_and_true_caption(self):
        trace = small_trace()
        svg = render_timeline(trace, [1.4])
        assert "t = 1" in svg
        assert "1.4" not in svg

    def test_empty_selection_is_error(self):
        with pytest.raises(ValueError, match="times"):
            render_timeline(small_trace(), [])

    def test_deterministic(self):
        trace = small_trace()
        assert render_timeline(trace, [0.0, 2.0]) == render_timeline(trace, [0.0, 2.0])
