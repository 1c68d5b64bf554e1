"""The benchmark traces netsom from outside the package: it wraps the
functions it names in ``perfbench/spans.py::TRACED`` and binds some of their
parameters by name. A refactor that renames either breaks the benchmark, so
this test checks both without editing the benchmark."""

import importlib.util
import inspect
import sys
from pathlib import Path

import netsom.pipeline  # noqa: F401 - loads every module the tracer patches

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the parameters that the counters in spans.py bind by name
BOUND = {"load_edge_list": {"path"}, "sha256_file": {"path"},
         "compute_all": {"graph"}, "train_som": {"epochs", "data"},
         "run_sir": {"dt", "graph"}, "run_spd": {"max_rounds", "graph"},
         "write_trace_csv": {"trace"}}


def test_tracer_installs_over_the_traced_surface(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only import
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    def current():
        return {(mod, fn): getattr(sys.modules[f"netsom.{mod}"], fn)
                for mod, fn, _ in spans.TRACED}

    originals = current()
    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        wrapped = current()
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not fn for key, fn in originals.items())
    assert current() == originals
    names = {fn for _, fn in originals}
    assert set(BOUND) <= names
    for (_, name), fn in originals.items():
        assert BOUND.get(name, set()) <= set(inspect.signature(fn).parameters), name
