"""The three workloads: what one set-up and one iteration do.

Every workload is closed-loop with a single client: the next iteration starts
when the previous one returns. The benchmark seed becomes the netsom master
seed; the program sees only the config and files built from it.
"""

from __future__ import annotations

import os
from pathlib import Path


def _quiet(*_args) -> None:
    pass


class ReportHK:
    """``full_run`` on the default config: HK n=10000, every stage once."""

    name = "report_hk"
    # edge list that iterations read from outside their own output directory
    edges: Path | None = None
    # traced functions that must not run inside an iteration
    idle_in_iteration: tuple[str, ...] = ()
    ops_per_setup = 0
    # generate, metrics, categorize, sir + timeline + pies, spd + timeline
    # + pies, heatmap
    ops_per_iter = 10

    def __init__(self, pipeline, seed: int, smoke: bool):
        self.pipeline = pipeline
        self.config = {"seed": seed}
        if smoke:
            self.config["generate"] = {"n": 300}

    def setup(self, workdir: Path) -> None:
        self.pipeline.resolve_config(self.config)

    def iterate(self, outdir: Path) -> None:
        self.pipeline.full_run(self.config, outdir, echo=_quiet)


class ExploreCNN:
    """Set-up builds CNN features once; each iteration re-categorizes,
    re-simulates and re-renders from the saved files."""

    name = "explore_cnn"
    idle_in_iteration = ("compute_all", "generate_cnn")
    lambdas = (0.1, 0.2, 0.4)
    temptations = (1.2, 1.5, 1.8)
    # 50 initially infected agents instead of the default 10: no epidemic
    # dies out by chance in its first sweeps, so the work per iteration
    # varies little from seed to seed
    initial = 50
    ops_per_setup = 2
    # categorize, heatmap, then simulate + timeline + pies per parameter
    ops_per_iter = 2 + 3 * (len(lambdas) + len(temptations))

    def __init__(self, pipeline, seed: int, smoke: bool):
        self.pipeline = pipeline
        self.seed = seed
        self.n = 300 if smoke else 3000
        self.edges: Path | None = None  # set-up's edge list, read by every stage
        self.features: Path | None = None

    def _seed(self, stage: str) -> int:
        return self.pipeline.derive_seed(self.seed, self.pipeline.STAGE_CODES[stage])

    def setup(self, workdir: Path) -> None:
        p = self.pipeline
        workdir.mkdir(parents=True, exist_ok=True)
        self.edges = workdir / "cnn.edges"
        self.features = workdir / "features.csv"
        p.stage_generate(self.edges, model="cnn", n=self.n, seed=self._seed("generate"))
        p.stage_metrics(self.edges, self.features)

    def iterate(self, outdir: Path) -> None:
        p = self.pipeline
        outdir.mkdir(parents=True, exist_ok=True)
        p.stage_categorize(self.features, outdir / "cnn", width=5, height=5,
                           epochs=20, seed=self._seed("categorize"))
        assign = outdir / "cnn.assign.csv"
        p.stage_render_heatmap(outdir / "cnn.cells.csv", outdir / "heatmap_cnn.svg")
        for lam in self.lambdas:
            trace = outdir / f"sir_trace_{lam:g}.csv"
            result = p.stage_simulate_sir(self.edges, assign, trace, lam=lam,
                                          n_initial=self.initial,
                                          seed=self._seed("sir"))
            self._render(trace, f"sir_{lam:g}", result.terminal_time)
        for T in self.temptations:
            trace = outdir / f"spd_trace_{T:g}.csv"
            result = p.stage_simulate_spd(self.edges, assign, trace, T=T,
                                          seed=self._seed("spd"))
            self._render(trace, f"spd_{T:g}", result.terminal_time)

    def _render(self, trace: Path, tag: str, terminal: float) -> None:
        p = self.pipeline
        p.stage_render_timeline(trace, trace.with_name(f"timeline_{tag}.svg"), None)
        p.stage_render_pies(trace, trace.with_name(f"pies_{tag}.svg"), terminal)


class EnsembleCNN:
    """``run_ensemble``: four seeded CNN full runs over two worker processes."""

    name = "ensemble_cnn"
    edges: Path | None = None
    idle_in_iteration: tuple[str, ...] = ()
    runs = 4
    workers = 2
    ops_per_setup = 0
    ops_per_iter = runs * ReportHK.ops_per_iter

    def __init__(self, pipeline, seed: int, smoke: bool):
        self.pipeline = pipeline
        self.config = {"seed": seed,
                       "generate": {"model": "cnn", "n": 200 if smoke else 2000}}

    def setup(self, workdir: Path) -> None:
        os.environ["NETSOM_THREADS"] = str(self.workers)
        self.pipeline.resolve_config(self.config)

    def iterate(self, outdir: Path) -> None:
        self.pipeline.run_ensemble(self.config, outdir, self.runs, echo=_quiet)


WORKLOADS = {w.name: w for w in (ReportHK, ExploreCNN, EnsembleCNN)}
