#!/usr/bin/env python3
"""netsom benchmark: end-to-end and per-layer metrics with output checks.

One run of one workload (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload report_hk --seed 1 --seconds 30 --trace 0

prints a human-readable table, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics with tracing off; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics. ``--record FILE`` also
appends the result to a JSON-lines file.

Other modes:

    python3 perfbench/run.py --all [--seed S] [--seconds N] [--record FILE]
        every workload untraced, then traced, each in its own process
    python3 perfbench/run.py --smoke
        every workload's code path and checks at tiny n, plus a check that the
        checkers catch corrupted outputs; the benchmark's own test
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
        medians, quartiles and ratios between two recorded result sets

The program is imported from ``src/`` of the checkout this file sits in; run
from anywhere else, the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

IMPORT_REPEATS = 5  # fresh-interpreter imports timed for setup_s
SETUP_REPEATS = 3   # in-process preparations timed for setup_s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Ledger:
    """Stage calls attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def phase(self, label: str, ops: int, problems, crashed: bool = False,
              attempted: bool = True) -> None:
        """Count ``ops`` stage calls; each call owning a problem failed."""
        if attempted:
            self.attempted += ops
        keys = {checks.op_key(rel) for rel, _ in problems}
        self.failed += ops if crashed else min(ops, len(keys))
        self.problems += [f"{label}: {rel}: {msg}" for rel, msg in problems]


def _import_seconds() -> float:
    code = ("import time; t = time.perf_counter(); import netsom.pipeline; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _call(fn, *args) -> Exception | None:
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - a failed stage call is a result
        return exc
    return None


def _replay(wl, pipeline, first: Path, again: Path) -> Exception | None:
    """Re-run an iteration with the metrics stage replaced by a copy of the
    first iteration's features, so every other artifact is produced again
    and can be compared byte for byte."""
    real = pipeline.stage_metrics

    def reuse_features(edges_path, out_path):
        rel = Path(out_path).relative_to(again)
        for name in (rel, rel.with_name(rel.name + ".meta.json")):
            shutil.copyfile(first / name, again / name)

    pipeline.stage_metrics = reuse_features
    try:
        return _call(wl.iterate, again)
    finally:
        pipeline.stage_metrics = real


def _program():
    """netsom.pipeline, imported from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from netsom import pipeline
    return pipeline


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    pipeline = _program()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(WORKLOADS[name](pipeline, seed, smoke), pipeline, work,
                        seed, seconds, trace)
    finally:
        _remove(work)


def _remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it


def _measure(wl, pipeline, work: Path, seed: int, seconds: float,
             trace: bool) -> dict:
    ledger = Ledger()
    tracer = spans.Tracer(work / "spans") if trace else None

    imports = [] if trace else [_import_seconds() for _ in range(IMPORT_REPEATS)]
    preps = []
    setup_ref = None
    for k in range(1 if trace else SETUP_REPEATS):
        out = work / f"setup_{k}"
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            exc = _call(wl.setup, out)
        finally:
            preps.append(time.perf_counter() - t0)
            if tracer:
                tracer.uninstall()
        if exc is not None:
            ledger.phase(out.name, wl.ops_per_setup, [("setup", repr(exc))], True)
            return _result(ledger, {})
        found = []
        if out.is_dir():
            digests = checks.digest_tree(out)
            if setup_ref is None:
                setup_ref = digests
                found = checks.check_outputs(out, seed)
            else:
                found = checks.compare_digests(setup_ref, digests)
        ledger.phase(out.name, wl.ops_per_setup, found)
    setup_spans = tracer.take() if tracer else []

    walls: dict[bool, list[float]] = {False: [], True: []}
    passes = []  # (spans, wall, cpu) of each traced iteration
    first = None
    ref = None
    elapsed = 0.0
    for i, traced in enumerate(cycle([False, True] if trace else [False])):
        out = work / f"iter_{i}"
        if traced:
            tracer.install()
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            exc = _call(wl.iterate, out)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - c0
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        elapsed += wall
        if traced:
            passes.append((tracer.take(), wall, cpu))
        if exc is not None:
            ledger.phase(out.name, wl.ops_per_iter, [("iteration", repr(exc))], True)
        else:
            digests = checks.digest_tree(out)
            if ref is None:
                ref, first = digests, out
                found = checks.check_outputs(out, seed, wl.edges)
            else:
                found = checks.compare_digests(ref, digests)
                shutil.rmtree(out)
            ledger.phase(out.name, wl.ops_per_iter, found)
        if elapsed >= seconds and (not trace or walls[True]):
            break
    peak_rss = _peak_rss_mb()

    if first is not None and len(walls[False]) + len(walls[True]) < 2:
        again = work / "replay"
        exc = _replay(wl, pipeline, first, again)
        found = ([("replay", repr(exc))] if exc is not None
                 else checks.compare_digests(ref, checks.digest_tree(again)))
        ledger.phase("replay", wl.ops_per_iter, found, attempted=False)

    if not trace:
        return _result(ledger, {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(imports) + statistics.median(preps),
            "peak_rss_mb": peak_rss,
        })

    per_pass, iteration_only = [], []
    for iter_spans, wall, cpu in passes:
        m = spans.layer_metrics(setup_spans, iter_spans, wall)
        m["process.cpu_s"] = cpu
        per_pass.append(m)
        iteration_only.append(spans.layer_metrics([], iter_spans, wall))
        idle = [s["name"] for s in iter_spans if s["name"] in wl.idle_in_iteration]
        if idle:
            ledger.problems.append(f"trace: {sorted(set(idle))} ran inside an iteration")
            ledger.failed += 1
    for key in spans.COUNTERS:
        if len({m[key] for m in per_pass}) > 1:
            ledger.problems.append(f"trace: counter {key} differs between passes: "
                                   f"{[m[key] for m in per_pass]}")
            ledger.failed += 1
    metrics = {key: statistics.median(m[key] for m in per_pass)
               for key in spans.LAYER_UNITS if key in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    result = _result(ledger, metrics)
    result["iteration_only"] = {key: statistics.median(m[key] for m in iteration_only)
                                for key in iteration_only[0]}
    result["spans"] = setup_spans + [s for p in passes for s in p[0]]
    return result


def _result(ledger: Ledger, values: dict) -> dict:
    units = {**END_TO_END, **spans.LAYER_UNITS}
    attempted = max(ledger.attempted, 1)
    return {"correct": ledger.failed == 0 and not ledger.problems,
            "attempted": attempted, "failed": min(ledger.failed, attempted),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            "problems": ledger.problems}


def machine() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def print_result(name: str, seed: int, trace: bool, result: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(f"{name} seed={seed} {mode}: {result['attempted']} stage calls, "
          f"{result['failed']} failed")
    rows = dict(result["metrics"])
    if not trace:
        rows["fail_ratio"] = {"value": result["failed"] / result["attempted"],
                              "unit": "ratio"}
    iteration = result.get("iteration_only", {})
    if iteration:
        print(f"  {'':<26} {'set-up + iter':>16} {'':<6} {'iteration only':>16}")
    for key, m in rows.items():
        alone = f"{iteration[key]:>16.6g}" if key in iteration else ""
        print(f"  {key:<26} {m['value']:>16.6g} {m['unit']:<6} {alone}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def emit(result: dict) -> None:
    """The last stdout line: the object the contract asks for."""
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out), flush=True)


def record(path: str, name: str, seed: int, trace: bool, result: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                             "machine": machine(), "result": result}) + "\n")


# ---------------------------------------------------------------------------
# modes


def main_one(args) -> int:
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine()))
    print_result(args.workload, args.seed, bool(args.trace), result)
    if args.record:
        record(args.record, args.workload, args.seed, bool(args.trace), result)
    emit(result)
    return 0 if result["correct"] else 1


def main_all(args) -> int:
    ok = True
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.record:
                cmd += ["--record", args.record]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            print(proc.stdout.rsplit("\n", 2)[0], flush=True)
            sys.stderr.write(proc.stderr)
            ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main_smoke() -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            result = run_workload(name, 7, 0, trace, smoke=True)
            print(f"smoke {name} trace={int(trace)}: correct={result['correct']} "
                  f"{result['attempted']} calls in {time.perf_counter() - t0:.1f} s")
            for problem in result["problems"]:
                print(f"  {problem}")
            missing = set(END_TO_END if not trace else spans.LAYER_UNITS) - set(result["metrics"])
            if missing:
                print(f"  missing metrics: {sorted(missing)}")
            ok = ok and result["correct"] and not missing
    caught = _checker_self_test()
    for label, hit in caught.items():
        print(f"smoke checker catches {label}: {hit}")
    return 0 if ok and all(caught.values()) else 1


def _checker_self_test() -> dict[str, bool]:
    """Corrupt a small report in four ways; each must be flagged."""
    pipeline = _program()
    work = WORK / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        pipeline.full_run({"seed": 3, "generate": {"n": 120}}, work, echo=lambda *_: None)
        caught = {"nothing in a clean report": not checks.check_outputs(work, 3)}

        def corrupt(label, rel, edit, check):
            path = work / rel
            original = path.read_text(encoding="utf-8")
            path.write_text(edit(original), encoding="utf-8")
            caught[label] = bool(check(path))
            path.write_text(original, encoding="utf-8")

        def shift_b(text):
            lines = text.splitlines(keepends=True)
            cols = lines[5].split(",")
            cols[3] = repr(float(cols[3]) * 1.01 + 1e-6)
            lines[5] = ",".join(cols)
            return "".join(lines)

        edges = work / "hk.edges"
        corrupt("betweenness off by 1%", "features.csv", shift_b,
                lambda p: checks.check_features(p, edges, 3))
        corrupt("agent added to an SIR snapshot", "sir_trace.csv",
                lambda t: t.replace("\n0,0,0,", "\n0,0,0,1", 1),
                lambda p: checks.check_trace(p, 120))
        corrupt("truncated svg", "heatmap_hk.svg", lambda t: t[: len(t) // 2],
                checks.check_svg)
        corrupt("stale meta hash", "hk.edges", lambda t: t + "0 1\n",
                lambda p: checks.check_meta(work))
        return caught
    finally:
        _remove(work)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main_compare(base_path: str, new_path: str) -> int:
    def load(path):
        sets: dict[tuple, dict[str, list[float]]] = {}
        counters: dict[tuple, dict[str, float]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                for metric, m in rec["result"]["metrics"].items():
                    sets.setdefault(key, {}).setdefault(metric, []).append(m["value"])
                    if metric in spans.COUNTERS:
                        counters.setdefault((rec["workload"], rec["seed"]), {})[metric] = m["value"]
        return sets, counters

    base, base_counts = load(base_path)
    new, new_counts = load(new_path)
    print(f"{'workload':<13} {'metric':<26} {'base median [q1, q3] (n)':<40} "
          f"{'new median [q1, q3] (n)':<40} new/base")
    for key in sorted(set(base) & set(new)):
        for metric in base[key]:
            if metric not in new[key]:
                continue
            cells = []
            for values in (base[key][metric], new[key][metric]):
                q1, med, q3 = _quartiles(values)
                cells.append((med, f"{med:.6g} [{q1:.6g}, {q3:.6g}] ({len(values)})"))
            ratio = (f"{cells[1][0] / cells[0][0]:.4f} of base {cells[0][0]:.6g}"
                     if cells[0][0] else "base is 0")
            print(f"{key[0]:<13} {metric:<26} {cells[0][1]:<40} {cells[1][1]:<40} {ratio}")
    shared = set(base_counts) & set(new_counts)
    same = [k for k in shared if base_counts[k] == new_counts[k]]
    print(f"counters repeat exactly for {len(same)} of {len(shared)} "
          f"(workload, seed) pairs run in both sets")
    for k in sorted(shared - set(same)):
        diff = {m: (base_counts[k][m], new_counts[k].get(m)) for m in base_counts[k]
                if base_counts[k][m] != new_counts[k].get(m)}
        print(f"  {k[0]} seed {k[1]}: {diff}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if not (SRC / "netsom" / "pipeline.py").is_file():
        print(f"perfbench: no netsom sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return main_smoke()
    if args.all:
        return main_all(args)
    if args.workload is None:
        ap.error("--workload is required (or --all, --smoke, --compare)")
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
