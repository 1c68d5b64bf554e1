"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces the public functions of each netsom module with wrappers
that record a span (name, layer, start, end, parent) and a few counters
computed from argument and result sizes. Nothing inside netsom changes; the
wrappers are installed in every loaded netsom module that binds the function,
so calls made by ``netsom.pipeline`` through its own imports are seen too.

Spans stay in memory. A forked ensemble worker inherits the tracer, buffers
its own spans, and writes them to ``<flush_dir>/spans-<pid>.jsonl`` once each
time its ``full_run`` returns; the parent reads those files afterwards.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from pathlib import Path


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _edges(graph) -> int:
    return int(graph.indices.size // 2)


def _count_generate(fn, args, kwargs, result) -> dict:
    return {"edges": result.num_edges}


def _count_file_bytes(fn, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


def _count_compute_all(fn, args, kwargs, result) -> dict:
    graph = _bound(fn, args, kwargs)["graph"]
    degrees = graph.indptr[1:] - graph.indptr[:-1]
    # one BFS over every directed edge, forward and backward, per source
    return {"edge_visits": 2 * graph.n * 2 * _edges(graph), "nodes": graph.n,
            "leaves": int((degrees == 1).sum())}


def _count_train(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    return {"presentations": int(a["epochs"]) * int(len(a["data"]))}


def _count_sir(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    sweeps = round(result.terminal_time / a["dt"])
    return {"sweeps": sweeps, "picks": sweeps * a["graph"].n,
            "snapshots": len(result.times)}


def _count_spd(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    rounds = int(result.terminal_time)
    # each round plays every directed edge once and updates over it once
    return {"rounds": rounds, "capped": int(rounds == a["max_rounds"]),
            "edge_visits": rounds * 2 * 2 * _edges(a["graph"])}


def _count_trace_write(fn, args, kwargs, result) -> dict:
    trace = _bound(fn, args, kwargs)["trace"]
    return {"rows": len(trace.times) * trace.n_cells}


def _count_trace_read(fn, args, kwargs, result) -> dict:
    return {"rows": len(result.times) * result.n_cells}


def _count_svg(fn, args, kwargs, result) -> dict:
    return {"svg_bytes": len(result.encode("utf-8"))}


# (module, function, counter) for every call the benchmark measures
TRACED = [
    ("generators", "generate_hk", _count_generate),
    ("generators", "generate_cnn", _count_generate),
    ("graph", "load_edge_list", _count_file_bytes),
    ("graph", "save_edge_list", None),
    ("metrics", "compute_all", _count_compute_all),
    ("metrics", "compute_clustering", None),
    ("metrics", "compute_avg_neighbor_degree", None),
    ("metrics", "write_features_csv", None),
    ("metrics", "read_features_csv", None),
    ("som", "normalize_features", None),
    ("som", "train_som", _count_train),
    ("som", "assign_nodes", None),
    ("som", "cell_stats", None),
    ("som", "write_assignment_csv", None),
    ("som", "read_assignment_csv", None),
    ("som", "write_cell_stats_csv", None),
    ("som", "read_cell_stats_csv", None),
    ("som", "save_som_json", None),
    ("sir", "run_sir", _count_sir),
    ("spd", "run_spd", _count_spd),
    ("simtrace", "write_trace_csv", _count_trace_write),
    ("simtrace", "read_trace_csv", _count_trace_read),
    ("render", "render_heatmaps", _count_svg),
    ("render", "render_timeline", _count_svg),
    ("render", "render_pie_lattice", _count_svg),
    ("pipeline", "sha256_file", _count_file_bytes),
    ("pipeline", "stage_generate", None),
    ("pipeline", "stage_metrics", None),
    ("pipeline", "stage_categorize", None),
    ("pipeline", "stage_simulate_sir", None),
    ("pipeline", "stage_simulate_spd", None),
    ("pipeline", "stage_render_heatmap", None),
    ("pipeline", "stage_render_pies", None),
    ("pipeline", "stage_render_timeline", None),
    ("pipeline", "full_run", None),
    ("pipeline", "run_ensemble", None),
]


class Tracer:
    """Records spans around the functions in TRACED while installed."""

    def __init__(self, flush_dir: Path):
        self.flush_dir = Path(flush_dir)
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.next_id = 0
        self.patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "netsom" or name.startswith("netsom."))]
        for mod_name, fn_name, counter in TRACED:
            orig = getattr(sys.modules[f"netsom.{mod_name}"], fn_name)
            wrapper = self._wrap(mod_name, fn_name, orig, counter)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched.clear()

    def take(self) -> list[dict]:
        """Spans recorded so far, including those flushed by workers."""
        spans, self.spans = self.spans, []
        if self.flush_dir.is_dir():
            for path in sorted(self.flush_dir.glob("spans-*.jsonl")):
                with path.open(encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh)
                path.unlink()
        return spans

    def _wrap(self, layer, name, fn, counter):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:  # forked worker: drop the parent's spans
                self.pid = os.getpid()
                self.spans = []
            sid = f"{self.pid}.{self.next_id}"
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self.stack.pop()
                counts = counter(fn, args, kwargs, result) if counter and ok else {}
                self.spans.append({"id": sid, "parent": parent, "name": name,
                                   "layer": layer, "start": start, "end": end,
                                   "pid": self.pid, "counts": counts})
                if name == "full_run" and self.pid != self.owner:
                    self._flush()
            return result

        return traced

    def _flush(self) -> None:
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        path = self.flush_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part of it that its children's union covers."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "metrics.compute_all_s": "s", "metrics.brandes_s": "s",
    "metrics.edge_visits": "count", "metrics.edge_visits_per_s": "1/s",
    "metrics.leaf_frac": "ratio", "metrics.clustering_s": "s",
    "metrics.knn_s": "s", "metrics.csv_write_s": "s",
    "metrics.csv_read_s": "s",
    "som.train_s": "s", "som.presentations": "count",
    "som.presentations_per_s": "1/s", "som.normalize_s": "s",
    "som.assign_s": "s", "som.cell_stats_s": "s", "som.io_s": "s",
    "sir.run_s": "s", "sir.sweeps": "count", "sir.picks_per_s": "1/s",
    "sir.snapshots": "count",
    "spd.run_s": "s", "spd.rounds": "count", "spd.capped_runs": "count",
    "spd.edge_visits_per_s": "1/s",
    "graph.load_s": "s", "graph.load_calls": "count",
    "graph.load_mb_per_s": "MB/s", "graph.save_s": "s",
    "generators.s": "s", "generators.edges_per_s": "1/s",
    "simtrace.write_s": "s", "simtrace.read_s": "s", "simtrace.rows": "count",
    "render.heatmap_s": "s", "render.timeline_s": "s", "render.pies_s": "s",
    "render.svg_bytes": "bytes",
    "pipeline.self_s": "s", "pipeline.hash_s": "s", "pipeline.hashed_mb": "MB",
    "pipeline.workers": "count", "pipeline.parallel_eff": "ratio",
    "process.cpu_s": "s", "trace.overhead_s": "s",
}

# counters that must repeat exactly between passes over the same inputs
COUNTERS = ("metrics.edge_visits", "metrics.leaf_frac", "som.presentations",
            "sir.sweeps", "sir.snapshots", "spd.rounds", "spd.capped_runs",
            "graph.load_calls", "simtrace.rows", "render.svg_bytes",
            "pipeline.hashed_mb", "pipeline.workers")


def layer_metrics(setup_spans: list[dict], iter_spans: list[dict],
                  iter_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: the set-up once plus one iteration.

    Layer times and counters cover both, so a layer that runs only during
    set-up (``metrics`` on explore_cnn) still shows its cost. Worker count
    and parallel efficiency describe the iteration alone.
    """
    spans = setup_spans + iter_spans
    selfs = self_times(spans)

    def dur(*names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def count(key, *names):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] in names)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    brandes = sum(selfs[s["id"]] for s in spans if s["name"] == "compute_all")
    visits = count("edge_visits", "compute_all")
    nodes = count("nodes", "compute_all")
    m["metrics.compute_all_s"] = dur("compute_all")
    m["metrics.brandes_s"] = brandes
    m["metrics.edge_visits"] = visits
    m["metrics.edge_visits_per_s"] = rate(visits, brandes)
    m["metrics.leaf_frac"] = count("leaves", "compute_all") / nodes if nodes else 0.0
    m["metrics.clustering_s"] = dur("compute_clustering")
    m["metrics.knn_s"] = dur("compute_avg_neighbor_degree")
    m["metrics.csv_write_s"] = dur("write_features_csv")
    m["metrics.csv_read_s"] = dur("read_features_csv")

    train = dur("train_som")
    presentations = count("presentations", "train_som")
    m["som.train_s"] = train
    m["som.presentations"] = presentations
    m["som.presentations_per_s"] = rate(presentations, train)
    m["som.normalize_s"] = dur("normalize_features")
    m["som.assign_s"] = dur("assign_nodes")
    m["som.cell_stats_s"] = dur("cell_stats")
    m["som.io_s"] = dur("write_assignment_csv", "read_assignment_csv",
                        "write_cell_stats_csv", "read_cell_stats_csv",
                        "save_som_json")

    sir = dur("run_sir")
    m["sir.run_s"] = sir
    m["sir.sweeps"] = count("sweeps", "run_sir")
    m["sir.picks_per_s"] = rate(count("picks", "run_sir"), sir)
    m["sir.snapshots"] = count("snapshots", "run_sir")

    spd = dur("run_spd")
    m["spd.run_s"] = spd
    m["spd.rounds"] = count("rounds", "run_spd")
    m["spd.capped_runs"] = count("capped", "run_spd")
    m["spd.edge_visits_per_s"] = rate(count("edge_visits", "run_spd"), spd)

    load = dur("load_edge_list")
    m["graph.load_s"] = load
    m["graph.load_calls"] = sum(1 for s in spans if s["name"] == "load_edge_list")
    m["graph.load_mb_per_s"] = rate(count("bytes", "load_edge_list") / 1e6, load)
    m["graph.save_s"] = dur("save_edge_list")

    gen = dur("generate_hk", "generate_cnn")
    m["generators.s"] = gen
    m["generators.edges_per_s"] = rate(count("edges", "generate_hk", "generate_cnn"), gen)

    m["simtrace.write_s"] = dur("write_trace_csv")
    m["simtrace.read_s"] = dur("read_trace_csv")
    m["simtrace.rows"] = count("rows", "write_trace_csv", "read_trace_csv")

    m["render.heatmap_s"] = dur("render_heatmaps")
    m["render.timeline_s"] = dur("render_timeline")
    m["render.pies_s"] = dur("render_pie_lattice")
    m["render.svg_bytes"] = count("svg_bytes", "render_heatmaps",
                                  "render_timeline", "render_pie_lattice")

    m["pipeline.self_s"] = sum(selfs[s["id"]] for s in spans
                               if s["layer"] == "pipeline" and s["name"] != "sha256_file")
    m["pipeline.hash_s"] = dur("sha256_file")
    m["pipeline.hashed_mb"] = count("bytes", "sha256_file") / 1e6

    # a run span is outermost work: a top-level call, or a full_run under the
    # ensemble's pool
    ids = {s["id"]: s for s in iter_spans}
    runs = [s for s in iter_spans if s["name"] != "run_ensemble" and (
        s["parent"] is None or ids.get(s["parent"], {}).get("name") == "run_ensemble")]
    workers = len({s["pid"] for s in runs}) or 1
    m["pipeline.workers"] = workers
    m["pipeline.parallel_eff"] = (sum(s["end"] - s["start"] for s in runs)
                                  / (workers * iter_wall))
    return m
