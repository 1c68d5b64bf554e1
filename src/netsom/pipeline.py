"""Pipeline stages: generate -> metrics -> categorize -> simulate -> render.

Every stage writes its artifact plus a sidecar ``<artifact>.meta.json``
recording parameters, the derived seed, and content hashes of inputs and
output (the digest of the bytes written), so any figure can be audited back
to the graph that produced it. Stages re-run independently from persisted
intermediates; a consumed artifact whose bytes no longer match its recorded
hash is rejected as stale, and one whose meta records none as corrupt.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, DEFAULT_CONFIG, resolve_config,  # noqa: F401 - re-exported
                     check, fork_map, thread_cap)
from .generators import generate_cnn, generate_hk
from .graph import Graph, load_edge_list, save_edge_list, write_text
from .metrics import (NodeFeatures, compute_all, read_features_csv,
                      write_features_csv)
from .render import render_heatmaps, render_pie_lattice, render_timeline
from .simtrace import SimTrace, read_trace_csv, write_trace_csv
from .sir import run_sir
from .som import (categorize, read_assignment_csv, read_cell_stats_csv,
                  save_som_json, write_assignment_csv, write_cell_stats_csv)
from .spd import run_spd

# deterministic master-seed split: stage seed = first word of
# SeedSequence([master, code]); ensemble run i uses SeedSequence([master, 9, i])
STAGE_CODES = {"generate": 1, "categorize": 2, "sir": 3, "spd": 4}

# the three artifacts of categorize, each named <prefix><suffix>
CATEGORIZE_SUFFIXES = (".assign.csv", ".cells.csv", ".som.json")

_GEN = DEFAULT_CONFIG["generate"]
_SOM = DEFAULT_CONFIG["som"]
_SIR = DEFAULT_CONFIG["sir"]
_SPD = DEFAULT_CONFIG["spd"]
_RADIUS_MODE = DEFAULT_CONFIG["render"]["radius_mode"]
_SEED = DEFAULT_CONFIG["seed"]


class PipelineError(RuntimeError):
    """A stage of a full run failed; the message names the stage."""


def derive_seed(master: int, *key: int) -> int:
    """Stage seed derived from the master seed and an integer key path."""
    check("", {"seed": master})
    ss = np.random.SeedSequence([int(master), *[int(k) for k in key]])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_meta(artifact: str | Path, digest: str, stage: str, params: dict,
                seed: int | None, inputs: dict[str, str],
                result: dict | None = None) -> None:
    """The sidecar of ``artifact``, whose writer returned ``digest``; ``inputs``
    maps each input's file name to the digest :func:`check_fresh` verified."""
    artifact = Path(artifact)
    doc = {
        "tool": "netsom",
        "version": __version__,
        "stage": stage,
        "artifact": artifact.name,
        "params": params,
        "seed": seed,
        "inputs": inputs,
        "output_sha256": digest,
    }
    if result is not None:
        doc["result"] = result
    meta_path = artifact.with_name(artifact.name + ".meta.json")
    write_text(meta_path, json.dumps(doc, sort_keys=True) + "\n")


def check_fresh(*paths: str | Path) -> dict[str, str]:
    """{file name: digest} of the inputs. An input whose bytes no longer
    match the digest its meta file records is stale, and a meta file with no
    digest is corrupt; a hand-made input has no meta file to check."""
    digests = {}
    for path in map(Path, paths):
        if not path.exists():
            raise FileNotFoundError(f"missing input: {path}")
        digest = digests[path.name] = sha256_file(path)
        meta_path = path.with_name(path.name + ".meta.json")
        if not meta_path.exists():
            continue
        try:
            recorded = json.loads(meta_path.read_text(encoding="utf-8"))["output_sha256"]
        except (ValueError, TypeError, KeyError):  # not JSON, not an object, no key
            recorded = None
        if not isinstance(recorded, str):
            raise ValueError(f"corrupt meta file {meta_path}: no output_sha256 string")
        if recorded != digest:
            raise ValueError(f"stale input: {path} does not match its recorded hash")
    return digests


def _named(path: str | Path, compute, *args):
    """``compute(*args)`` on what a reader returned from ``path``, with the
    path in front of a ValueError that is not a ConfigError: the values in
    that file cannot be computed on. Run no reader under it; a reader's
    errors already name ``file:line``."""
    try:
        return compute(*args)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# stages


def stage_generate(out_path: str | Path, model: str = _GEN["model"],
                   n: int = _GEN["n"], m: int = _GEN["m"],
                   p_t: float = _GEN["p_t"], u: float = _GEN["u"],
                   seed: int = _SEED) -> Graph:
    check("generate", {"model": model})
    if model == "hk":
        graph = generate_hk(n, m=m, p_t=p_t, seed=seed)
        params = {"model": model, "n": n, "m": m, "p_t": p_t}
    else:
        graph = generate_cnn(n, u=u, seed=seed)
        params = {"model": model, "n": n, "u": u}
    _write_meta(out_path, save_edge_list(graph, out_path), "generate", params,
                seed, {}, result={"edges": graph.num_edges,
                                  "mean_degree": graph.mean_degree})
    return graph


def stage_metrics(edges_path: str | Path, out_path: str | Path) -> NodeFeatures:
    inputs = check_fresh(edges_path)
    features = _named(edges_path, compute_all, load_edge_list(edges_path))
    _write_meta(out_path, write_features_csv(features, out_path), "metrics",
                {}, None, inputs)
    return features


def stage_categorize(features_path: str | Path, out_prefix: str | Path,
                     width: int = _SOM["width"], height: int = _SOM["height"],
                     epochs: int = _SOM["epochs"], seed: int = _SEED,
                     log_features: tuple[str, ...] = ()):
    """Categorize the nodes of a features file (:func:`som.categorize`) and
    write the three artifacts, <prefix> plus each of CATEGORIZE_SUFFIXES:
    the assignment, the cell statistics and the map."""
    check("som", {"log_features": log_features})
    inputs = check_fresh(features_path)
    grid, assignment, stats = _named(features_path, categorize,
                                     read_features_csv(features_path), width,
                                     height, epochs, seed, log_features)
    prefix = Path(out_prefix)
    assign_path, cells_path, som_path = (prefix.with_name(prefix.name + suffix)
                                         for suffix in CATEGORIZE_SUFFIXES)
    written = [(assign_path, write_assignment_csv(assignment, assign_path)),
               (cells_path, write_cell_stats_csv(stats, cells_path)),
               (som_path, save_som_json(grid, som_path))]
    params = {"width": width, "height": height, "epochs": epochs,
              "log_features": list(log_features)}
    result = {"qe_initial": grid.qe_initial, "qe_final": grid.qe_final}
    for path, digest in written:
        _write_meta(path, digest, "categorize", params, seed, inputs, result=result)
    return grid, assignment, stats


def stage_simulate_sir(edges_path: str | Path, assign_path: str | Path,
                       out_path: str | Path, lam: float = _SIR["lambda"],
                       mu: float = _SIR["mu"], dt: float = _SIR["dt"],
                       n_initial: int = _SIR["initial"], seed: int = _SEED,
                       snapshot_every: float = _SIR["snapshot_every"]) -> SimTrace:
    return _simulate("sir", edges_path, assign_path, out_path, seed,
                     {"lambda": lam, "mu": mu, "dt": dt, "initial": n_initial,
                      "snapshot_every": snapshot_every})


def stage_simulate_spd(edges_path: str | Path, assign_path: str | Path,
                       out_path: str | Path, T: float = _SPD["T"],
                       eps: float = _SPD["eps"], seed: int = _SEED,
                       max_rounds: int = _SPD["max_rounds"],
                       tie: str = _SPD["tie"]) -> SimTrace:
    return _simulate("spd", edges_path, assign_path, out_path, seed,
                     {"T": T, "eps": eps, "max_rounds": max_rounds, "tie": tie})


# Per simulation: the meta "result" of a trace, which opens its summary
# entry, the summary keys of the final counts and of one state's share, and
# that state. stage_simulate_<name> and run_<name> are looked up when called,
# so a module attribute replaced from outside (a tracer) is the one called.
SIMULATIONS = {
    "sir": (lambda trace: {"terminal_t": trace.terminal_time},
            "terminal_counts", "terminal_R_fraction", "R"),
    "spd": (lambda trace: {"rounds": int(trace.terminal_time),
                           "fixed_point": trace.fixed_point},
            "final_counts", "final_cooperator_fraction", "C"),
}


def stage_keywords(params: dict) -> dict:
    """A simulation's config section as keyword arguments of its stage and
    model functions, which spell two keys differently."""
    spelled = {"lambda": "lam", "initial": "n_initial"}
    return {spelled.get(key, key): value for key, value in params.items()}


def _simulate(name: str, edges_path: str | Path, assign_path: str | Path,
              out_path: str | Path, seed: int, params: dict) -> SimTrace:
    """Shared body of the simulate stages; ``params`` uses config keys."""
    inputs = check_fresh(edges_path, assign_path)
    graph, assignment = load_edge_list(edges_path), read_assignment_csv(assign_path)
    if assignment.n != graph.n:
        raise ValueError(f"{assign_path} assigns {assignment.n} nodes but "
                         f"{edges_path} has {graph.n}")
    trace = globals()[f"run_{name}"](graph, assignment, seed=seed,
                                     **stage_keywords(params))
    _write_meta(out_path, write_trace_csv(trace, out_path), f"simulate-{name}",
                params, seed, inputs, result=SIMULATIONS[name][0](trace))
    return trace


def stage_render_heatmap(cells_path: str | Path, out_path: str | Path) -> None:
    inputs = check_fresh(cells_path)
    svg = _named(cells_path, render_heatmaps, read_cell_stats_csv(cells_path))
    _write_meta(out_path, write_text(out_path, svg), "render-heatmap", {}, None, inputs)


def stage_render_pies(trace_path: str | Path, out_path: str | Path, t: float,
                      radius_mode: str = _RADIUS_MODE) -> None:
    inputs = check_fresh(trace_path)
    svg = _named(trace_path, render_pie_lattice, read_trace_csv(trace_path), t,
                 radius_mode)
    _write_meta(out_path, write_text(out_path, svg), "render-pies",
                {"t": t, "radius_mode": radius_mode}, None, inputs)


def stage_render_timeline(trace_path: str | Path, out_path: str | Path,
                          times: list[float] | None,
                          radius_mode: str = _RADIUS_MODE) -> None:
    inputs = check_fresh(trace_path)
    trace = read_trace_csv(trace_path)
    if times is None:
        times = default_timeline_times(trace)
    svg = _named(trace_path, render_timeline, trace, times, radius_mode)
    _write_meta(out_path, write_text(out_path, svg), "render-timeline",
                {"times": times, "radius_mode": radius_mode}, None, inputs)


def default_timeline_times(trace: SimTrace) -> list[float]:
    """Evenly spaced snapshot times from start to terminal, at most six: six
    rounded linspace points over the indices, which take every time of a
    trace of up to six snapshots (the points lie at most one index apart and
    never on a .5 tie)."""
    idx = np.linspace(0, len(trace.times) - 1, 6).round().astype(int)
    return [trace.times[i] for i in sorted(set(int(i) for i in idx))]


# ---------------------------------------------------------------------------
# full pipeline


def full_run(config: dict, outdir: str | Path, echo=print) -> dict:
    """Run every stage under one master seed; returns the summary dict.

    The report directory holds all intermediates, figures, metadata, the
    resolved config, and summary.json.
    """
    cfg = resolve_config(config)
    thread_cap()  # a malformed NETSOM_THREADS fails here, before any stage
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    master = cfg["seed"]
    write_text(outdir / "config.json", json.dumps(cfg, sort_keys=True, indent=2) + "\n")

    summary: dict = {"seed": master, "config": cfg, "artifacts": []}

    def record(path: Path) -> Path:
        summary["artifacts"].append(path.name)
        return path

    model = cfg["generate"]["model"]

    def _stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - rewrap with the stage label
            raise PipelineError(f"stage {name} failed: {exc}") from exc

    edges = record(outdir / f"{model}.edges")
    graph = _stage("generate", stage_generate, edges,
                   seed=derive_seed(master, STAGE_CODES["generate"]),
                   **cfg["generate"])
    echo(f"generate: {edges.name} n={graph.n} edges={graph.num_edges} "
         f"<k>={graph.mean_degree:.3f}")
    summary["graph"] = {"model": model, "n": graph.n,
                        "edges": graph.num_edges,
                        "mean_degree": graph.mean_degree}

    features_path = record(outdir / "features.csv")
    _stage("metrics", stage_metrics, edges, features_path)
    echo(f"metrics: {features_path.name}")

    s = cfg["som"]
    prefix = outdir / model
    grid, assignment, stats = _stage(
        "categorize", stage_categorize, features_path, prefix,
        seed=derive_seed(master, STAGE_CODES["categorize"]), **s)
    assign_path, cells_path, _ = (record(outdir / (model + suffix))
                                  for suffix in CATEGORIZE_SUFFIXES)
    echo(f"categorize: grid {s['width']}x{s['height']}, "
         f"qe {grid.qe_initial:.4f} -> {grid.qe_final:.4f}")
    summary["cells"] = {
        "width": stats.width, "height": stats.height,
        "counts": stats.counts.tolist(),
        "means": {name: [None if np.isnan(v) else v
                         for v in stats.means[:, j]]
                  for j, name in enumerate(stats.feature_names)},
    }

    render_cfg = cfg["render"] if cfg["render"] is not False else None

    for sim_name, (outcome, counts_key, share_key, state) in SIMULATIONS.items():
        if cfg[sim_name] is False:
            continue
        trace_path = record(outdir / f"{sim_name}_trace.csv")
        trace = _stage(f"simulate-{sim_name}", globals()[f"stage_simulate_{sim_name}"],
                       edges, assign_path, trace_path,
                       seed=derive_seed(master, STAGE_CODES[sim_name]),
                       **stage_keywords(cfg[sim_name]))
        counts = dict(zip(trace.state_names, trace.totals(-1).tolist()))
        summary[sim_name] = {**outcome(trace), counts_key: counts,
                             share_key: counts[state] / graph.n}
        echo(f"simulate {sim_name}: {trace.time_label}="
             f"{trace.terminal_time:g} {state}={counts[state]}/{graph.n}")
        if render_cfg is not None:
            tl = record(outdir / f"timeline_{sim_name}.svg")
            _stage("render", stage_render_timeline, trace_path, tl,
                   render_cfg["times"], render_cfg["radius_mode"])
            term = trace.terminal_time
            pies = record(outdir / f"pies_{sim_name}_{term:g}.svg")
            _stage("render", stage_render_pies, trace_path, pies, term,
                   render_cfg["radius_mode"])

    if render_cfg is not None:
        hm = record(outdir / f"heatmap_{model}.svg")
        _stage("render", stage_render_heatmap, cells_path, hm)
        echo(f"render: {hm.name}")

    summary["artifacts"] = sorted(summary["artifacts"])
    write_text(outdir / "summary.json",
               json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return summary


def run_ensemble(config: dict, outdir: str | Path, runs: int,
                 echo=print) -> list[dict]:
    """Independent seeded full runs in run_<i> subdirectories.

    Run i derives its master seed from the config seed and i, so ensembles
    are reproducible and order-independent. NETSOM_THREADS caps the worker
    processes, and parallel runs split the cap between their metrics
    stages. Every run is quiet; one line per run is echoed once all are
    done, so the output is the same on any worker count.
    """
    cfg = resolve_config(config)
    jobs = [({**config, "seed": derive_seed(cfg["seed"], 9, i)},
             Path(outdir) / f"run_{i:03d}") for i in range(runs)]
    results = fork_map(lambda job: full_run(*job, echo=lambda *_: None), jobs)
    for i, r in enumerate(results):
        echo(f"run_{i:03d}: done (seed {r['seed']})")
    return results
