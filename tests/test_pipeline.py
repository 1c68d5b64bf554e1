import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netsom import (build_graph, compute_all, generate_cnn, generate_hk,
                    init_sir, metrics, play_round, read_trace_csv,
                    render_pie_lattice, run_sir, run_spd, train_som,
                    update_strategies, write_trace_csv)
from netsom import graph, pipeline, simtrace
from netsom.cli import main
from netsom.config import CHOICES, RANGES
from netsom.pipeline import (ConfigError, PipelineError, default_timeline_times,
                             derive_seed, full_run, resolve_config, run_ensemble,
                             sha256_file, stage_categorize, stage_generate)
from netsom.simtrace import SimTrace
from netsom.som import CellAssignment
from conftest import live_descendants, random_connected_graph
from test_acceptance import CRITERION_11_DIGESTS

SMALL_CONFIG = {"seed": 5, "generate": {"model": "hk", "n": 250}}
CRITERION_11_CONFIG = {"seed": 3, "generate": {"model": "hk", "n": 400}}
READERS = ("load_edge_list", "read_features_csv", "read_assignment_csv",
           "read_cell_stats_csv", "read_trace_csv")


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def one_cell(n):
    return CellAssignment(width=1, height=1, x=np.zeros(n, dtype=np.int64),
                          y=np.zeros(n, dtype=np.int64))


SAMPLES = np.random.default_rng(0).random((10, 2))
NO_STRATEGIES = np.zeros(4, dtype=np.int8)

# per rule: a config patch that breaks it, onto a base that runs when valid,
# and a call of the library function that reads the key, given an empty
# directory; each RANGES and CHOICES key, then each rule relating two keys
BAD_VALUES = {
    "seed": ({"seed": -1}, lambda tmp: derive_seed(-1, 1)),
    "generate.n": ({"generate": {"model": "cnn", "n": 0}},
                   lambda tmp: generate_cnn(0)),
    # the check is the generator's first line, so nothing is allocated
    "generate.n < 2**31": ({"generate": {"n": 2**31}},
                           lambda tmp: generate_hk(2**31)),
    "generate.m": ({"generate": {"m": 0}}, lambda tmp: generate_hk(10, m=0)),
    "generate.p_t": ({"generate": {"p_t": 1.5}}, lambda tmp: generate_hk(10, p_t=1.5)),
    "generate.u": ({"generate": {"u": 1.0}}, lambda tmp: generate_cnn(10, u=1.0)),
    "generate.model": ({"generate": {"model": "ba"}},
                       lambda tmp: stage_generate(tmp / "g.edges", model="ba")),
    "som.width": ({"som": {"width": 0}}, lambda tmp: train_som(SAMPLES, width=0)),
    "som.height": ({"som": {"height": -2}}, lambda tmp: train_som(SAMPLES, height=-2)),
    "som.epochs": ({"som": {"epochs": 0}}, lambda tmp: train_som(SAMPLES, epochs=0)),
    "som.log_features": ({"som": {"log_features": ["k", "bb"]}},
                         lambda tmp: stage_categorize(tmp / "f.csv", tmp / "g",
                                                      log_features=["k", "bb"])),
    "sir.lambda": ({"sir": {"lambda": -0.5}},
                   lambda tmp: run_sir(path_graph(4), one_cell(4), lam=-0.5)),
    "sir.mu": ({"sir": {"mu": 0}}, lambda tmp: run_sir(path_graph(4), one_cell(4), mu=0)),
    "sir.dt": ({"sir": {"dt": 0}}, lambda tmp: run_sir(path_graph(4), one_cell(4), dt=0)),
    "sir.initial": ({"sir": {"initial": 0}},
                    lambda tmp: run_sir(path_graph(4), one_cell(4), n_initial=0)),
    "sir.snapshot_every": ({"sir": {"snapshot_every": -1.0}},
                           lambda tmp: run_sir(path_graph(4), one_cell(4),
                                               snapshot_every=-1.0)),
    "spd.T": ({"spd": {"T": 1}}, lambda tmp: play_round(path_graph(4), NO_STRATEGIES, T=1)),
    "spd.eps": ({"spd": {"eps": 1}},
                lambda tmp: play_round(path_graph(4), NO_STRATEGIES, eps=1)),
    "spd.max_rounds": ({"spd": {"max_rounds": 0}},
                       lambda tmp: run_spd(path_graph(4), one_cell(4), max_rounds=0)),
    "spd.tie": ({"spd": {"tie": "rand"}},
                lambda tmp: update_strategies(path_graph(4), NO_STRATEGIES,
                                              np.zeros(4), tie="rand")),
    "render.radius_mode": ({"render": {"radius_mode": "pop"}},
                           lambda tmp: render_pie_lattice(
                               SimTrace(("S",), 1, 1, times=[0.0],
                                        counts=[np.ones((1, 1))]),
                               0.0, radius_mode="pop")),
    "generate.n >= 3": ({"generate": {"n": 2}},
                        lambda tmp: compute_all(path_graph(2))),
    "generate.n > generate.m": ({"generate": {"n": 4, "m": 4}},
                                lambda tmp: generate_hk(4, m=4)),
    "som.width * som.height >= 2": ({"som": {"width": 1, "height": 1}},
                                    lambda tmp: train_som(SAMPLES, 1, 1)),
    "sir.initial <= generate.n": ({"sir": {"initial": 121}},
                                  lambda tmp: init_sir(path_graph(120), 121)),
}


def dir_digest(path):
    return {p.name: sha256_file(p) for p in sorted(path.iterdir()) if p.is_file()}


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        g = random_connected_graph(np.random.default_rng(0), 40)
        a = CellAssignment(width=2, height=2,
                           x=np.tile([0, 1], 20).astype(np.int64),
                           y=np.repeat([0, 1], 20).astype(np.int64))
        trace = run_sir(g, a, seed=1)
        p = tmp_path / "trace.csv"
        write_trace_csv(trace, p)
        back = read_trace_csv(p)
        assert back.state_names == trace.state_names
        assert back.times == trace.times
        assert back.time_label == "t"
        assert all(np.array_equal(x, y) for x, y in zip(back.counts, trace.counts))


class TestTimelineTimes:
    @pytest.mark.parametrize("snapshots", range(1, 8))
    def test_every_time_up_to_six_then_six_spread(self, snapshots):
        times = [0.5 * i for i in range(snapshots)]
        trace = SimTrace(state_names=("S",), width=1, height=1, times=times)
        picked = times if snapshots <= 6 else [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]
        assert default_timeline_times(trace) == picked


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(7, 1) == derive_seed(7, 1)
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(7, 9, 0) != derive_seed(7, 9, 1)


class TestConfig:
    def test_defaults_cascade(self):
        cfg = resolve_config({"generate": {"model": "cnn"}})
        assert cfg["generate"]["model"] == "cnn"
        assert cfg["generate"]["n"] == 10000
        assert cfg["sir"]["lambda"] == 0.2
        assert cfg["spd"]["T"] == 1.5
        assert cfg["som"]["width"] == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"generate": {"model": "hk"}, "typo": {}})
        with pytest.raises(ConfigError):
            resolve_config({"sir": {"lambdaa": 0.1}})

    def test_value_types(self):
        # an int will do for a float, but a bool is never a number
        cfg = resolve_config({"sir": {"lambda": 1}, "render": {"times": [0, 2.5]},
                              "som": {"log_features": ["b"]}})
        assert cfg["sir"]["lambda"] == 1 and cfg["render"]["times"] == [0, 2.5]
        for bad in ({"seed": True}, {"seed": 1.0}, {"generate": {"n": 10.0}}):
            with pytest.raises(ConfigError):
                resolve_config(bad)


class TestFullRun:
    def test_report_contents_and_summary(self, tmp_path):
        out = tmp_path / "report"
        summary = full_run(SMALL_CONFIG, out, echo=lambda *_: None)
        names = {p.name for p in out.iterdir()}
        for expected in ("hk.edges", "features.csv", "hk.assign.csv",
                         "hk.cells.csv", "hk.som.json", "sir_trace.csv",
                         "spd_trace.csv", "heatmap_hk.svg", "timeline_sir.svg",
                         "timeline_spd.svg", "summary.json", "config.json"):
            assert expected in names, expected
        assert summary["graph"]["n"] == 250
        assert summary["sir"]["terminal_counts"]["I"] == 0
        assert 0 <= summary["spd"]["final_cooperator_fraction"] <= 1
        on_disk = json.loads((out / "summary.json").read_text())
        assert on_disk["sir"] == summary["sir"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        full_run(SMALL_CONFIG, a, echo=lambda *_: None)
        full_run(SMALL_CONFIG, b, echo=lambda *_: None)
        assert dir_digest(a) == dir_digest(b)

    def test_grid_parameter_plumbs_through(self, tmp_path):
        cfg = dict(SMALL_CONFIG, som={"width": 3, "height": 3})
        out = tmp_path / "r"
        summary = full_run(cfg, out, echo=lambda *_: None)
        assert len(summary["cells"]["counts"]) == 9
        assert len(summary["cells"]["means"]["k"]) == 9
        cells = (out / "hk.cells.csv").read_text().splitlines()
        assert len(cells) == 1 + 9
        trace = read_trace_csv(out / "sir_trace.csv")
        assert trace.width == trace.height == 3

    def test_log_features_option(self, tmp_path):
        from netsom.pipeline import stage_categorize, stage_generate, stage_metrics
        from netsom.som import load_som_json
        edges = tmp_path / "g.edges"
        stage_generate(edges, model="hk", n=300, seed=1)
        features = tmp_path / "g.features.csv"
        stage_metrics(edges, features)
        stage_categorize(features, tmp_path / "plain", seed=2)
        stage_categorize(features, tmp_path / "logged", seed=2,
                         log_features=("k", "b"))
        plain = load_som_json(tmp_path / "plain.som.json")
        logged = load_som_json(tmp_path / "logged.som.json")
        # log10(1+x) compresses the k and b spans; the other bounds match
        assert logged.feat_max[0] < plain.feat_max[0]
        assert logged.feat_max[2] < plain.feat_max[2]
        np.testing.assert_allclose(logged.feat_max[[1, 3, 4]],
                                   plain.feat_max[[1, 3, 4]])
        meta = json.loads((tmp_path / "logged.som.json.meta.json").read_text())
        assert meta["params"]["log_features"] == ["k", "b"]

    def test_sections_can_be_disabled(self, tmp_path):
        cfg = dict(SMALL_CONFIG, spd=False)
        out = tmp_path / "r"
        summary = full_run(cfg, out, echo=lambda *_: None)
        assert "spd" not in summary
        assert not (out / "spd_trace.csv").exists()

    def test_metadata_audit_chain(self, tmp_path):
        out = tmp_path / "r"
        full_run(SMALL_CONFIG, out, echo=lambda *_: None)
        meta = json.loads((out / "sir_trace.csv.meta.json").read_text())
        assert meta["inputs"]["hk.edges"] == sha256_file(out / "hk.edges")
        assert meta["output_sha256"] == sha256_file(out / "sir_trace.csv")
        assert meta["params"]["lambda"] == 0.2
        assert meta["seed"] == derive_seed(5, 3)

    def test_each_stage_hashes_each_input_once(self, tmp_path, monkeypatch):
        hashed = []
        real = pipeline.sha256_file
        monkeypatch.setattr(pipeline, "sha256_file",
                            lambda path: hashed.append(Path(path).name) or real(path))
        full_run(SMALL_CONFIG, tmp_path / "r", echo=lambda *_: None)
        # once per stage that reads it; an output's digest comes from the
        # text written, so no stage reads back a file it wrote
        assert hashed.count("hk.edges") == 3  # metrics, sir, spd
        assert hashed.count("features.csv") == 1  # categorize
        assert hashed.count("hk.assign.csv") == 2  # sir, spd
        assert hashed.count("sir_trace.csv") == 2  # timeline, pies

    def test_each_input_parsed_once_per_run(self, tmp_path, monkeypatch):
        parsed = []
        for name in READERS:
            monkeypatch.setattr(pipeline, name, lambda path, real=getattr(pipeline, name):
                                parsed.append(Path(path).name) or real(path))
        for out in ("a", "b"):  # a parse is kept for one run, not the next
            full_run(CRITERION_11_CONFIG, tmp_path / out, echo=lambda *_: None)
        assert sorted(parsed) == sorted(["hk.edges", "features.csv", "hk.assign.csv",
                                         "hk.cells.csv", "sir_trace.csv",
                                         "spd_trace.csv"] * 2)
        # a stage called on its own parses every time
        parsed.clear()
        out = tmp_path / "a"
        for _ in range(2):
            pipeline.stage_simulate_sir(out / "hk.edges", out / "hk.assign.csv",
                                        tmp_path / "again.csv")
        assert parsed == ["hk.edges", "hk.assign.csv"] * 2

    def test_input_rewritten_between_stages_is_stale(self, tmp_path, monkeypatch):
        real = pipeline.stage_metrics

        def metrics_then_rewrite(edges_path, out_path):
            real(edges_path, out_path)  # the run keeps this parse of the edges
            Path(edges_path).write_text(Path(edges_path).read_text() + "0 9\n")

        monkeypatch.setattr(pipeline, "stage_metrics", metrics_then_rewrite)
        with pytest.raises(PipelineError, match="simulate-sir failed: stale input"):
            full_run(SMALL_CONFIG, tmp_path / "r", echo=lambda *_: None)

    def test_files_a_run_writes_are_parsed_whole(self, tmp_path, monkeypatch):
        def refuse(*_args):
            raise AssertionError("a file of the run was read one row at a time")

        monkeypatch.setattr(graph, "_edge_list_rows", refuse)
        monkeypatch.setattr(graph, "_node_csv_rows", refuse)
        monkeypatch.setattr(simtrace, "_trace_rows", refuse)
        full_run(CRITERION_11_CONFIG, tmp_path, echo=lambda *_: None)
        assert dir_digest(tmp_path) == CRITERION_11_DIGESTS

    def test_stages_called_through_the_module(self, tmp_path, monkeypatch):
        # the benchmark's replay swaps pipeline.stage_metrics for a copier,
        # so full_run must look each stage up when it calls it
        first, again = tmp_path / "first", tmp_path / "again"
        full_run(SMALL_CONFIG, first, echo=lambda *_: None)
        calls = []

        def reuse_features(edges_path, out_path):
            calls.append(out_path)
            for name in ("features.csv", "features.csv.meta.json"):
                shutil.copyfile(first / name, again / name)

        monkeypatch.setattr(pipeline, "stage_metrics", reuse_features)
        full_run(SMALL_CONFIG, again, echo=lambda *_: None)
        assert calls == [again / "features.csv"]
        assert dir_digest(again) == dir_digest(first)

    def test_hand_made_input_digest_in_meta(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        pipeline.stage_metrics(edges, tmp_path / "f.csv")
        meta = json.loads((tmp_path / "f.csv.meta.json").read_text())
        assert meta["inputs"] == {"g.edges": sha256_file(edges)}

    def test_stale_input_detected(self, tmp_path):
        out = tmp_path / "r"
        full_run(SMALL_CONFIG, out, echo=lambda *_: None)
        edges = out / "hk.edges"
        edges.write_text(edges.read_text() + "0 9\n")
        from netsom.pipeline import stage_metrics
        with pytest.raises(ValueError, match="stale"):
            stage_metrics(edges, out / "f2.csv")

    def test_fixed_point_reported_at_max_rounds(self, tmp_path):
        # the game settles on round 4; capping it at 4 rounds must still
        # report a fixed point, in summary.json and in the trace's meta file
        cfg = dict(SMALL_CONFIG, sir=False, render=False)
        free = full_run(cfg, tmp_path / "free", echo=lambda *_: None)["spd"]
        assert free["fixed_point"] and free["rounds"] == 4
        for cap, fixed in ((4, True), (3, False)):
            out = tmp_path / f"cap{cap}"
            summary = full_run(dict(cfg, spd={"max_rounds": cap}), out,
                               echo=lambda *_: None)
            meta = json.loads((out / "spd_trace.csv.meta.json").read_text())
            assert summary["spd"]["rounds"] == meta["result"]["rounds"] == cap
            assert summary["spd"]["fixed_point"] is fixed
            assert meta["result"]["fixed_point"] is fixed

    def test_ensemble_bytes_and_processes_under_shared_cap(self, tmp_path, monkeypatch):
        # 2 runs under a cap of 4: each run's metrics stage forks 2 workers
        monkeypatch.setattr(metrics, "SOURCE_BLOCK", 64)
        digests = []
        for threads in ("1", "4"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            out = tmp_path / threads
            run_ensemble(dict(SMALL_CONFIG, sir=False, spd=False, render=False),
                         out, 2, echo=lambda *_: None)
            assert not live_descendants()
            digests.append([dir_digest(out / f"run_00{i}") for i in range(2)])
        assert digests[0] == digests[1]

    def test_ensemble_echo_same_for_any_worker_count(self, tmp_path, monkeypatch):
        lines = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NETSOM_THREADS", threads)
            echoed = []
            run_ensemble(dict(SMALL_CONFIG, sir=False, spd=False, render=False),
                         tmp_path / threads, 2, echo=echoed.append)
            lines.append(echoed)
        assert lines[0] == lines[1]
        assert [line.split(":")[0] for line in lines[0]] == ["run_000", "run_001"]

    def test_ensemble_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NETSOM_THREADS", "1")
        out = tmp_path / "ens"
        results = run_ensemble(SMALL_CONFIG, out, 2, echo=lambda *_: None)
        assert (out / "run_000" / "summary.json").exists()
        assert (out / "run_001" / "summary.json").exists()
        assert results[0]["seed"] != results[1]["seed"]


class TestCli:
    def test_stage_by_stage(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        assert main(["generate", "--model", "hk", "--n", "200", "--seed", "3",
                     "-o", str(edges)]) == 0
        assert main(["metrics", str(edges)]) == 0
        features = tmp_path / "g.features.csv"
        assert features.exists()
        assert main(["categorize", str(features), "--grid", "4x4",
                     "--seed", "3"]) == 0
        assign = tmp_path / "g.assign.csv"
        assert assign.exists()
        assert main(["simulate", "sir", str(edges), str(assign), "--lambda",
                     "0.2", "--mu", "1", "--dt", "0.01", "--initial", "5",
                     "--seed", "4"]) == 0
        assert (tmp_path / "g.sir.csv").exists()
        assert main(["simulate", "spd", str(edges), str(assign),
                     "--seed", "4"]) == 0
        assert main(["render", "heatmap", str(tmp_path / "g.cells.csv"),
                     "-o", str(tmp_path / "hm.svg")]) == 0
        assert main(["render", "pies", str(tmp_path / "g.sir.csv"), "--t", "1",
                     "-o", str(tmp_path / "pies.svg")]) == 0
        assert main(["render", "timeline", str(tmp_path / "g.spd.csv"),
                     "--times", "0,1,2", "-o", str(tmp_path / "tl.svg")]) == 0
        for f in ("hm.svg", "pies.svg", "tl.svg"):
            assert (tmp_path / f).stat().st_size > 0

    def test_each_command_reports_its_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"seed": 5, "generate": {"model": "cnn", "n": 60},
                                      "render": False}))
        expected = [
            (["generate", "--model", "hk", "--n", "60", "--m", "4", "--pt", "0.9",
              "--seed", "1", "-o", "g.edges"],
             "wrote g.edges: n=60 edges=230 <k>=7.667\n"),
            (["metrics", "g.edges"], "wrote g.features.csv\n"),
            (["categorize", "g.features.csv", "--grid", "3x2", "--seed", "2"],
             "wrote g.assign.csv g.cells.csv g.som.json (qe 0.7392 -> 0.1878)\n"),
            # the prefix as given
            (["categorize", "g.features.csv", "--grid", "3x2", "--seed", "2",
              "-o", "./h"],
             "wrote ./h.assign.csv ./h.cells.csv ./h.som.json (qe 0.7392 -> 0.1878)\n"),
            (["simulate", "sir", "g.edges", "g.assign.csv", "--seed", "4"],
             "wrote g.sir.csv: t=4.84\n"),
            (["simulate", "spd", "g.edges", "g.assign.csv", "--seed", "4"],
             "wrote g.spd.csv: round=4\n"),
            (["render", "heatmap", "g.cells.csv", "-o", "hm.svg"], "wrote hm.svg\n"),
            (["render", "pies", "g.sir.csv", "--t", "1", "-o", "pies.svg"],
             "wrote pies.svg\n"),
            (["render", "timeline", "g.spd.csv", "--times", "0,1", "-o", "tl.svg"],
             "wrote tl.svg\n"),
            (["run", str(config), "-o", "rep"],
             "generate: cnn.edges n=60 edges=266 <k>=8.867\n"
             "metrics: features.csv\n"
             "categorize: grid 5x5, qe 0.5472 -> 0.1087\n"
             "simulate sir: t=7.52 R=43/60\n"
             "simulate spd: round=3 C=0/60\n"
             "report in rep\n")]
        for argv, out in expected:
            assert main(argv) == 0
            assert capsys.readouterr() == (out, "")

    def test_run_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "report"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["run", str(cfg), "-o", str(tmp_path / "x")]) == 2
        monkeypatch.chdir(tmp_path)  # where a run without -o writes
        cfg.write_text("[1]")
        assert main(["run", str(cfg)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["run", str(cfg), "-o", str(tmp_path / "x")]) == 2
        cfg.write_bytes(b'{"seed": 1}\xff')
        assert main(["run", str(cfg), "-o", str(tmp_path / "x")]) == 2
        assert f"cannot read config {cfg}" in capsys.readouterr().err
        cfg.write_text(json.dumps({**SMALL_CONFIG, "outdir": 5}))
        assert main(["run", str(cfg)]) == 2
        assert "outdir must be a string" in capsys.readouterr().err
        # usage errors: argparse exits 2 before any stage
        cfg.write_text(json.dumps(SMALL_CONFIG))
        trace = tmp_path / "t.csv"
        trace.write_text("t,X,Y,S,I,R\n0,0,0,5,0,0\n")
        edges, features = tmp_path / "g.edges", tmp_path / "g.features.csv"
        for argv in (["run", str(cfg), "-o", str(tmp_path / "x"), "--runs", "0"],
                     ["run", str(cfg), "-o", str(tmp_path / "x"), "--runs", "-1"],
                     ["render", "timeline", str(trace), "--times", ",",
                      "-o", str(tmp_path / "tl.svg")],
                     ["generate", "--model", "hk", "--n", "60", "--seed", "-3",
                      "-o", str(edges)],
                     ["categorize", str(features), "--seed", "-3"],
                     ["simulate", "sir", str(edges), str(trace), "--seed", "-3"],
                     ["simulate", "sir", str(edges), str(trace), "--dt", "inf"],
                     ["simulate", "sir", str(edges), str(trace), "--lambda", "nan"],
                     ["render", "pies", str(trace), "--t", "nan",
                      "-o", str(tmp_path / "tl.svg")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert not (tmp_path / "x").exists() and not (tmp_path / "tl.svg").exists()
        assert not edges.exists()

    @pytest.mark.parametrize("runs", ["1", "2"])
    def test_negative_config_seed_exit_2(self, tmp_path, capsys, runs):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "seed": -1}))
        out = tmp_path / "report"
        assert main(["run", str(config), "-o", str(out), "--runs", runs]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()  # failed before any file was written

    def test_stage_failure_exit_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.edges"
        assert main(["metrics", str(missing)]) == 3
        bad = tmp_path / "bad.edges"
        bad.write_text("0 zebra\n")
        assert main(["metrics", str(bad)]) == 3
        features = tmp_path / "nan.features.csv"
        features.write_text("node,k,k_nn,b,L,C\n0,1,1,0,1,0\n1,1,nan,0,1,0\n")
        assert main(["categorize", str(features)]) == 3
        assert f"{features}:3:" in capsys.readouterr().err

    def test_short_assignment_row_exit_3(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        assert main(["generate", "--model", "hk", "--n", "60", "--seed", "1",
                     "-o", str(edges)]) == 0
        short = tmp_path / "short.assign.csv"
        short.write_text("node,X,Y\n0,0,0\n4,1\n")
        assert main(["simulate", "spd", str(edges), str(short)]) == 3
        assert f"{short}:3:" in capsys.readouterr().err

    def test_assignment_for_another_graph_exit_3(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        assert main(["generate", "--model", "hk", "--n", "60", "--seed", "1",
                     "-o", str(edges)]) == 0
        short = tmp_path / "short.assign.csv"
        short.write_text("node,X,Y\n" + "".join(f"{i},0,0\n" for i in range(30)))
        assert main(["simulate", "sir", str(edges), str(short)]) == 3
        err = capsys.readouterr().err
        assert str(edges) in err and str(short) in err
        assert "30" in err and "60" in err

    def test_initial_above_node_count_exit_2(self, tmp_path, capsys):
        edges, assign = tmp_path / "g.edges", tmp_path / "g.assign.csv"
        assert main(["generate", "--model", "hk", "--n", "60", "--seed", "1",
                     "-o", str(edges)]) == 0
        assign.write_text("node,X,Y\n" + "".join(f"{i},0,0\n" for i in range(60)))
        trace = tmp_path / "g.sir.csv"
        assert main(["simulate", "sir", str(edges), str(assign),
                     "--initial", "61", "-o", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err == "netsom: config error: sir.initial must be in [1, 60], got 61\n"
        assert not trace.exists()

    def test_som_that_worsens_exit_3(self, tmp_path, capsys):
        # half the nodes at every feature's minimum, half at its maximum: one
        # batch epoch on 2x1 cells ends farther from the data than it began
        features = tmp_path / "f.features.csv"
        features.write_text("node,k,k_nn,b,L,C\n" + "".join(
            f"{i},1,1,0,1,0\n" if i < 50 else f"{i},9,9,100,5,1\n"
            for i in range(100)))
        assert main(["categorize", str(features), "--grid", "2x1", "--epochs", "1",
                     "--seed", "88"]) == 3
        assert "SOM training worsened quantization error" in capsys.readouterr().err
        assert not (tmp_path / "f.assign.csv").exists()

    def test_header_only_cells_exit_3(self, tmp_path, capsys):
        cells = tmp_path / "empty.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert str(cells) in capsys.readouterr().err

    def test_all_empty_cells_exit_3(self, tmp_path, capsys):
        cells = tmp_path / "zero.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n"
                         "0,0,0,,,,,\n1,0,0,,,,,\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert capsys.readouterr().err == (
            f"netsom: {cells}: cannot render heat maps: every cell is empty\n")
        assert not (tmp_path / "hm.svg").exists()

    def test_short_cells_row_exit_3(self, tmp_path, capsys):
        cells = tmp_path / "short.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n"
                         "0,0,1,4,5,0.1,3,0.2\n0,0\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert f"{cells}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0,0,0,5", "0,0,0,5,x,0", "0,0,0,5,0,0,1",
                                     "0,-1,0,7,0,0", "-1,0,0,5,0,0",
                                     "nan,0,0,4,1,0", "0,0,0,4,1,0",
                                     "0,0,99999999999999999999,5,0,0"])
    def test_malformed_trace_row_exit_3(self, tmp_path, capsys, row):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"t,X,Y,S,I,R\n0,0,0,5,0,0\n{row}\n")
        assert main(["render", "pies", str(trace), "--t", "0",
                     "-o", str(tmp_path / "pies.svg")]) == 3
        assert f"{trace}:3:" in capsys.readouterr().err
        assert not (tmp_path / "pies.svg").exists()

    def test_negative_cells_coordinate_exit_3(self, tmp_path, capsys):
        cells = tmp_path / "neg.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n"
                         "0,0,1,4,5,0.1,3,0.2\n0,-1,9,4,5,0.1,3,0.2\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert f"{cells}:3:" in capsys.readouterr().err
        assert not (tmp_path / "hm.svg").exists()

    @pytest.mark.parametrize("row,where", [
        ("0,0,9,4,5,0.1,3,0.2", ":3: cell (0, 0) is listed twice"),
        ("2,0,9,4,5,0.1,3,0.2", ": 2 rows do not list"),  # 3x1 without (1, 0)
        ("0,0,99999999999999999999,4,5,0.1,3,0.2", ":3: expected")])
    def test_malformed_cells_table_exit_3(self, tmp_path, capsys, row, where):
        cells = tmp_path / "bad.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n"
                         f"0,0,1,4,5,0.1,3,0.2\n{row}\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert f"{cells}{where}" in capsys.readouterr().err
        assert not (tmp_path / "hm.svg").exists()

    @pytest.mark.parametrize("rows", [
        "0,1,0,5,0,0\n0,0,1,5,0,0\n",            # cells (1, 0), (0, 1): 2 of 4
        "0,1,0,5,0,0\n1,1,0,5,0,0\n"])  # snapshot 1 without cell (0, 0)
    def test_trace_snapshot_missing_cells_exit_3(self, tmp_path, capsys, rows):
        trace = tmp_path / "bad.csv"
        trace.write_text(f"t,X,Y,S,I,R\n0,0,0,5,0,0\n{rows}")
        assert main(["render", "pies", str(trace), "--t", "0",
                     "-o", str(tmp_path / "pies.svg")]) == 3
        assert f"{trace}: " in capsys.readouterr().err
        assert not (tmp_path / "pies.svg").exists()

    @pytest.mark.parametrize("mean", ["nan", "inf"])
    def test_non_finite_cells_mean_exit_3(self, tmp_path, capsys, mean):
        cells = tmp_path / "nan.cells.csv"
        cells.write_text("X,Y,count,mean_k,mean_k_nn,mean_b,mean_L,mean_C\n"
                         f"0,0,1,4,5,0.1,3,0.2\n1,0,1,4,{mean},0.1,3,0.2\n")
        assert main(["render", "heatmap", str(cells),
                     "-o", str(tmp_path / "hm.svg")]) == 3
        assert f"{cells}:3:" in capsys.readouterr().err
        assert not (tmp_path / "hm.svg").exists()

    def test_non_integer_thread_cap_exit_2(self, tmp_path, capsys, monkeypatch):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 0\n")
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        for cap in ("abc", "0", "-3"):
            monkeypatch.setenv("NETSOM_THREADS", cap)
            assert main(["metrics", str(edges)]) == 2
            assert "NETSOM_THREADS" in capsys.readouterr().err
            for runs in ("1", "2"):
                out = tmp_path / f"{cap}_{runs}"
                assert main(["run", str(config), "-o", str(out),
                             "--runs", runs]) == 2
                assert "NETSOM_THREADS" in capsys.readouterr().err
                assert not out.exists()  # failed before any stage

    # a meta file that records no digest vouches for no bytes
    @pytest.mark.parametrize("doc", ["garbage", "{}", '{"output_sha256": null}', "[]"])
    def test_corrupt_meta_exit_3(self, tmp_path, capsys, doc):
        features = tmp_path / "g.features.csv"
        features.write_text("node,k,k_nn,b,L,C\n0,1,1,0,1,0\n1,1,1,0,1,0\n")
        meta = tmp_path / "g.features.csv.meta.json"
        meta.write_text(doc)
        assert main(["categorize", str(features)]) == 3
        assert str(meta) in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("som", "width", "5"), ("sir", "initial", 2.5), ("render", "times", "abc"),
        ("render", "times", [1, True]), ("spd", "T", True), ("som", "log_features", "b"),
        ("generate", "model", 3), ("render", "times", []), ("sir", "dt", float("inf")),
        ("sir", "lambda", float("nan")), ("render", "times", [1.0, float("nan")]),
        pytest.param("sir", "mu", 10**400, id="sir-mu-10**400"),
        ("generate", "model", "ba"), ("spd", "tie", "rand"),
        ("render", "radius_mode", "pop"), ("som", "log_features", ["bb"]),
        ("som", "log_features", ["b", "b"])])
    def test_config_value_type_exit_2(self, tmp_path, capsys, section, key, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SMALL_CONFIG, section: {key: value}}))
        out = tmp_path / "report"
        assert main(["run", str(config), "-o", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()  # failed before any stage

    def test_bad_values_cover_every_rule(self):
        assert set(RANGES) | set(CHOICES) <= set(BAD_VALUES)

    @pytest.mark.parametrize("rule", list(BAD_VALUES))
    def test_bad_value_exit_2_before_any_file(self, tmp_path, capsys, rule):
        # the base is the config that once ran three stages before its
        # "sir.dt": 0 failed
        config = {"seed": 5, "generate": {"model": "hk", "n": 120}, "render": False}
        patch, call = BAD_VALUES[rule]
        for section, values in patch.items():
            base = config.get(section)
            config[section] = {**base, **values} if isinstance(base, dict) else values
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report"
        assert main(["run", str(path), "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        path.unlink()
        with pytest.raises(ValueError) as exc:
            call(tmp_path)
        assert str(exc.value) in err
        assert not list(tmp_path.iterdir())
        if rule != "generate.n >= 3":  # in the library, compute_all's graph check
            assert err == f"netsom: config error: {exc.value}\n"
            assert isinstance(exc.value, ConfigError)

    @pytest.mark.parametrize("section", ["generate", "som"])
    def test_needed_section_false_exit_2(self, tmp_path, capsys, section):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SMALL_CONFIG, section: False}))
        out = tmp_path / "report"
        assert main(["run", str(config), "-o", str(out)]) == 2
        assert f"section {section!r} must be an object\n" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_stage_named_exit_3(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "report"
        (out / "hk.edges").mkdir(parents=True)  # the edge list cannot be written
        assert main(["run", str(config), "-o", str(out)]) == 3
        assert "stage generate failed" in capsys.readouterr().err

    def test_edge_beyond_node_header_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("# nodes: 3\n0 1\n1 5\n")
        assert main(["metrics", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"{bad}:3:" in err and "out of range" in err

    # edge lists the reader accepts but that have no features: too few
    # nodes, or a node with no path from node 0
    @pytest.mark.parametrize("text,message", [
        pytest.param("0 1\n", "feature vector needs at least 3 nodes", id="K2"),
        pytest.param("0 1\n2 3\n", "graph is disconnected: no path between "
                     "nodes 0 and 2", id="two-K2")])
    def test_featureless_graph_exit_3(self, tmp_path, capsys, text, message):
        edges = tmp_path / "two.edges"
        edges.write_text(text)
        assert main(["metrics", str(edges)]) == 3
        assert capsys.readouterr().err == f"netsom: {edges}: {message}\n"
        assert not (tmp_path / "two.features.csv").exists()

    @pytest.mark.parametrize("text,where", [
        ("0 1\n1 1\n", ":2: self-loop on node 1"),
        ("# nodes: 100000000000000\n0 1\n", ":1: node count 100000000000000"),
        ("0 1\n1 99999999999999999999\n", ": node count"),
        ("0 1\n1 2\xff\n", ": not UTF-8 text")])
    def test_malformed_edge_list_exit_3(self, tmp_path, capsys, text, where):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(text.encode("latin-1"))
        assert main(["metrics", str(bad)]) == 3
        assert f"{bad}{where}" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2,99999999999999999999,1,0,1,0",
                                     "2,1,1,0,1,0\xff"])
    def test_malformed_features_exit_3(self, tmp_path, capsys, row):
        features = tmp_path / "bad.features.csv"
        features.write_bytes(("node,k,k_nn,b,L,C\n0,1,1,0,1,0\n1,2,1,0,1,0\n"
                              f"{row}\n").encode("latin-1"))
        assert main(["categorize", str(features), "-o", str(tmp_path / "out")]) == 3
        assert str(features) in capsys.readouterr().err
        assert not list(tmp_path.glob("out.*"))

    # values the reader accepts but the map cannot take: one node, or a
    # negative value under the log
    @pytest.mark.parametrize("rows,flags,message", [
        pytest.param("0,1,1,0,1,0\n", [],
                     "need a 2-D feature matrix with at least 2 rows", id="one-node"),
        pytest.param("0,1,1,-0.5,1,0\n1,2,1,0,1,0\n", ["--log-features", "b"],
                     "feature b has negative values", id="negative-log-b")])
    def test_uncategorizable_features_exit_3(self, tmp_path, capsys, rows, flags,
                                             message):
        features = tmp_path / "bad.features.csv"
        features.write_text("node,k,k_nn,b,L,C\n" + rows)
        assert main(["categorize", str(features), *flags,
                     "-o", str(tmp_path / "out")]) == 3
        assert f"netsom: {features}: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("out.*"))

    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--log-features", "b,b"],
                     "som.log_features must list each value at most once", id="b,b"),
        pytest.param(["--grid", "1x1"], "som.width * som.height must be >= 2",
                     id="1x1")])
    def test_categorize_option_exit_2(self, tmp_path, capsys, flags, message):
        features = tmp_path / "g.features.csv"
        features.write_text("node,k,k_nn,b,L,C\n0,1,1,0,1,0\n1,2,1,0,1,0\n")
        assert main(["categorize", str(features), *flags,
                     "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"netsom: config error: {message}")
        assert not list(tmp_path.glob("out.*"))

    def test_tiny_snapshot_interval_records_every_sweep(self, tmp_path):
        edges, assign = tmp_path / "g.edges", tmp_path / "g.assign.csv"
        assert main(["generate", "--model", "hk", "--n", "60", "--seed", "1",
                     "-o", str(edges)]) == 0
        assign.write_text("node,X,Y\n" + "".join(f"{i},{i % 2},0\n" for i in range(60)))
        traces = []
        for every in ("0.01", "1e-300", "5e-324"):  # 0.01 is dt
            traces.append(tmp_path / f"{every}.csv")
            proc = subprocess.run(
                [sys.executable, "-m", "netsom", "simulate", "sir", str(edges),
                 str(assign), "--snapshot-every", every, "-o", str(traces[-1])],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
        assert traces[0].read_bytes() == traces[1].read_bytes() == traces[2].read_bytes()

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "m.edges"
        proc = subprocess.run(
            [sys.executable, "-m", "netsom", "generate", "--model", "cnn",
             "--n", "50", "--seed", "1", "-o", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_import_loads_no_pool_modules():
    # fork_map imports its pool on first use: importing the pipeline, which
    # every netsom command and benchmark set-up does, must not pay for it
    code = ("import sys, netsom.pipeline; print(sorted(set(sys.modules) & "
            "{'multiprocessing', 'concurrent.futures'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
