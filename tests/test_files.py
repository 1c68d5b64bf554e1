"""The one CSV reader and the one file writer: every malformed input file
is a ValueError naming the file, and a failed write leaves the previous
file as it was."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsom import SimTrace, load_edge_list, read_trace_csv, write_trace_csv
from netsom.graph import write_text
from netsom.metrics import read_features_csv
from netsom.som import read_assignment_csv, read_cell_stats_csv

# A valid file of each format. Every integer is a single digit, so four
# mutations grow a number to at most five digits, or, through the long
# token, past int64: no mutated file can ask for a large allocation.
VALID = {
    "edges": (load_edge_list, "# nodes: 4\n0 1\n1 2\n2 3\n3 0\n"),
    "features": (read_features_csv, "node,k,k_nn,b,L,C\n0,2,2,0.5,1.5,0\n"
                                    "1,2,2,0.5,1.5,0\n2,2,2,0.5,1.5,0\n"),
    "assign": (read_assignment_csv, "node,X,Y\n0,0,0\n1,1,0\n2,0,1\n"),
    "cells": (read_cell_stats_csv, "X,Y,count,mean_k,mean_b\n0,0,2,3,0.5\n"
                                   "1,0,0,,\n"),
    "trace": (read_trace_csv, "t,X,Y,S,I\n0,0,0,3,1\n0,1,0,2,0\n"
                              "0.5,0,0,2,2\n0.5,1,0,1,1\n"),
}
INSERTS = [b"\xff", b"\xc3", b"99999999999999999999", b"-", b",", b"\n",
           b"\r\n", b" ", b"0", b"1", b"nan", b"inf", b"x", b"#", b'"', b"\x00"]
MUTATION = st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                     st.integers(0, 200), st.sampled_from(INSERTS))


def mutate(data: bytes, ops) -> bytes:
    for kind, at, token in ops:
        at %= len(data) + 1
        if kind == "insert":
            data = data[:at] + token + data[at:]
        elif at < len(data):
            data = data[:at] + (token[:1] if kind == "replace" else b"") + data[at + 1:]
    return data


@pytest.mark.parametrize("fmt", sorted(VALID))
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_file_fails_only_as_value_error_naming_it(tmp_path_factory, fmt, ops):
    read, text = VALID[fmt]
    path = tmp_path_factory.mktemp("fuzz") / f"input.{fmt}"
    path.write_bytes(mutate(text.encode("utf-8"), ops))
    try:
        read(path)
    except ValueError as exc:
        assert str(path) in str(exc)


@pytest.mark.parametrize("fmt", ["features", "assign", "cells", "trace"])
def test_oversized_csv_field_names_the_line(tmp_path, fmt):
    read, text = VALID[fmt]
    path = tmp_path / f"input.{fmt}"
    path.write_text(text + "x" * 200000 + "\n")
    with pytest.raises(ValueError, match=f"^{path}:{text.count(chr(10)) + 1}: "):
        read(path)


def test_valid_files_read(tmp_path):
    for fmt, (read, text) in VALID.items():
        path = tmp_path / f"input.{fmt}"
        path.write_text(text)
        read(path)


def _broken_trace() -> SimTrace:
    """A trace whose last snapshot has too few cells: writing it fails
    after the rows of the first snapshot."""
    trace = SimTrace(state_names=("S", "I"), width=2, height=1)
    trace.append(0.0, np.ones((2, 2), dtype=np.int64))
    trace.append(1.0, np.ones((2, 1), dtype=np.int64))
    return trace


def _failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize("case", ["unencodable", "writer", "rename"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, case):
    target = tmp_path / "out.csv"
    write_text(target, "previous\n")
    with pytest.raises((UnicodeEncodeError, IndexError, OSError)):
        if case == "unencodable":
            write_text(target, "row\n" * 100000 + "\udcff\n")
        elif case == "writer":
            write_trace_csv(_broken_trace(), target)
        else:
            monkeypatch.setattr(os, "replace", _failing_replace)
            write_text(target, "new\n")
    assert target.read_bytes() == b"previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_rows_in_any_cell_order_read_the_same(tmp_path):
    rng = np.random.default_rng(0)
    lattice = [(x, y) for y in range(2) for x in range(3)]
    cells = [f"{x},{y},{x + y},{',' if x + y == 0 else f'{x},{y / 3}'}\n"
             for x, y in lattice]
    snapshots = [[f"{t},{x},{y},{5 - t - x},{t + x},{y}\n" for x, y in lattice]
                 for t in (0, 1)]
    tables = {"cells": (read_cell_stats_csv, "X,Y,count,mean_k,mean_b\n", [cells]),
              "trace": (read_trace_csv, "t,X,Y,S,I,R\n", snapshots)}
    for name, (read, header, blocks) in tables.items():
        ordered, shuffled = tmp_path / f"{name}.csv", tmp_path / f"{name}.shuffled.csv"
        ordered.write_text(header + "".join(map("".join, blocks)))
        shuffled.write_text(header + "".join("".join(rng.permutation(rows))
                                             for rows in blocks))
        a, b = read(ordered), read(shuffled)
        assert shuffled.read_text() != ordered.read_text()
        for field in vars(a):
            np.testing.assert_equal(getattr(b, field), getattr(a, field))
