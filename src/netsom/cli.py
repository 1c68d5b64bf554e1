"""Command-line interface: netsom <generate|metrics|categorize|simulate|render|run>.

Exit codes: 0 success, 2 configuration/usage error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pipeline
from .config import CHOICES, DEFAULT_CONFIG, ConfigError, check
from .graph import finite_float
from .pipeline import PipelineError


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 5x5, got {text!r}")


def _parse_times(text: str) -> list[float]:
    try:
        times = [finite_float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        times = []
    if not times:
        raise argparse.ArgumentTypeError(f"times must be comma-separated numbers, got {text!r}")
    return times


def _seed(text: str) -> int:
    """An argparse type: an integer seed that the config accepts."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    try:
        check("", {"seed": seed})
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


def _runs(text: str) -> int:
    """An argparse type: a run count, an integer >= 1."""
    try:
        runs = int(text)
    except ValueError:
        runs = 0
    if runs < 1:
        raise argparse.ArgumentTypeError(f"runs must be an integer >= 1, got {text!r}")
    return runs


def build_parser() -> argparse.ArgumentParser:
    seed = DEFAULT_CONFIG["seed"]
    gen, som = DEFAULT_CONFIG["generate"], DEFAULT_CONFIG["som"]
    radius = DEFAULT_CONFIG["render"]["radius_mode"]
    parser = argparse.ArgumentParser(
        prog="netsom",
        description="Generate growth-model networks, categorize nodes on a "
                    "self-organizing map, simulate epidemics and games, and "
                    "render per-category figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a growth-model network as an edge list")
    p.add_argument("--model", choices=CHOICES["generate.model"], required=True)
    p.add_argument("--n", type=int, default=gen["n"])
    p.add_argument("--m", type=int, default=gen["m"], help="edges per arriving node (hk)")
    p.add_argument("--pt", dest="p_t", metavar="PT", type=finite_float,
                   default=gen["p_t"], help="triad-formation probability (hk)")
    p.add_argument("--u", type=finite_float, default=gen["u"],
                   help="conversion probability (cnn)")
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("metrics", help="compute per-node features to CSV")
    p.add_argument("edges")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("categorize", help="train the SOM and assign nodes to cells")
    p.add_argument("features")
    p.add_argument("--grid", type=_parse_grid,
                   default=(som["width"], som["height"]), metavar="WxH")
    p.add_argument("--epochs", type=int, default=som["epochs"])
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--log-features", default="",
                   help="comma-separated feature names to log10(1+x)-scale first")
    p.add_argument("-o", "--out-prefix", default=None)

    p = sub.add_parser("simulate", help="run a simulation over an assigned graph")
    sim = p.add_subparsers(dest="sim", required=True)

    for name, text in (("sir", "asynchronous SIR epidemic"),
                       ("spd", "spatial prisoner's dilemma")):
        ps = sim.add_parser(name, help=text)
        ps.add_argument("edges")
        ps.add_argument("assignment")
        # one option per key of the config section: snapshot_every is
        # --snapshot-every, and the result is the section's params
        for key, value in DEFAULT_CONFIG[name].items():
            flags = ["--" + key.replace("_", "-")]
            if key == "T":
                flags.append("--temptation")
            ps.add_argument(*flags, dest=key, default=value,
                            type=finite_float if isinstance(value, float) else type(value),
                            choices=CHOICES.get(f"{name}.{key}"))
        ps.add_argument("--seed", type=_seed, default=seed)
        ps.add_argument("-o", "--output", default=None)

    p = sub.add_parser("render", help="render SVG figures from CSV artifacts")
    ren = p.add_subparsers(dest="what", required=True)

    ph = ren.add_parser("heatmap", help="per-component cell heat maps")
    ph.add_argument("cells")
    ph.add_argument("-o", "--output", required=True)

    # pies and timeline differ only in the option that picks the snapshots
    for name, text, flag, when in (
            ("pies", "pie lattice for one snapshot", "--t",
             {"type": finite_float, "required": True}),
            ("timeline", "pie lattices for several snapshots", "--times",
             {"type": _parse_times, "default": None})):
        pr = ren.add_parser(name, help=text)
        pr.add_argument("trace")
        pr.add_argument(flag, **when)
        pr.add_argument("--radius", choices=CHOICES["render.radius_mode"], default=radius)
        pr.add_argument("-o", "--output", required=True)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("config")
    p.add_argument("-o", "--outdir", default=None)
    p.add_argument("--runs", type=_runs, default=1,
                   help="ensemble of independent seeded runs (NETSOM_THREADS caps workers)")

    return parser


def _default_output(path: str, old_suffix: str, new_suffix: str) -> Path:
    name = Path(path).name
    stem = name[:-len(old_suffix)] if name.endswith(old_suffix) else Path(name).stem
    return Path(path).with_name(stem + new_suffix)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        print(_dispatch(args))
        return 0
    except ConfigError as exc:
        print(f"netsom: config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ValueError, OSError) as exc:
        print(f"netsom: {exc}", file=sys.stderr)
        return 3


def _dispatch(args: argparse.Namespace) -> str:
    """Run the command; returns the line that reports what it wrote."""
    if args.command == "generate":
        graph = pipeline.stage_generate(
            args.output, seed=args.seed,
            **{key: getattr(args, key) for key in DEFAULT_CONFIG["generate"]})
        return (f"wrote {args.output}: n={graph.n} edges={graph.num_edges} "
                f"<k>={graph.mean_degree:.3f}")

    if args.command == "metrics":
        out = args.output or _default_output(args.edges, ".edges", ".features.csv")
        pipeline.stage_metrics(args.edges, out)
        return f"wrote {out}"

    if args.command == "categorize":
        prefix = args.out_prefix or str(_default_output(args.features,
                                                        ".features.csv", ""))
        names = tuple(s.strip() for s in args.log_features.split(",") if s.strip())
        width, height = args.grid
        grid, _, _ = pipeline.stage_categorize(
            args.features, prefix, width=width, height=height,
            epochs=args.epochs, seed=args.seed, log_features=names)
        written = " ".join(prefix + suffix for suffix in pipeline.CATEGORIZE_SUFFIXES)
        return f"wrote {written} (qe {grid.qe_initial:.4f} -> {grid.qe_final:.4f})"

    if args.command == "simulate":
        out = args.output or _default_output(args.edges, ".edges",
                                             f".{args.sim}.csv")
        params = {key: getattr(args, key) for key in DEFAULT_CONFIG[args.sim]}
        stage = getattr(pipeline, f"stage_simulate_{args.sim}")
        trace = stage(args.edges, args.assignment, out, seed=args.seed,
                      **pipeline.stage_keywords(params))
        return f"wrote {out}: {trace.time_label}={trace.terminal_time:g}"

    if args.command == "render":
        if args.what == "heatmap":
            pipeline.stage_render_heatmap(args.cells, args.output)
        elif args.what == "pies":
            pipeline.stage_render_pies(args.trace, args.output, args.t,
                                       radius_mode=args.radius)
        else:
            pipeline.stage_render_timeline(args.trace, args.output, args.times,
                                           radius_mode=args.radius)
        return f"wrote {args.output}"

    if args.command == "run":
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config} must be a JSON object")
        outdir = args.outdir or config.get("outdir") or "netsom_report"
        if args.runs > 1:
            pipeline.run_ensemble(config, outdir, args.runs)
        else:
            pipeline.full_run(config, outdir)
        return f"report in {outdir}"

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
