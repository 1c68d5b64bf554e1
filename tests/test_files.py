"""The readers and the one file writer: every malformed input file is a
ValueError naming the file, a file parsed whole reads as it reads one row at
a time, a failed write leaves the previous file as it was, and a writer
returns the digest of the bytes it leaves."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsom import Graph, SimTrace, load_edge_list, read_trace_csv, write_trace_csv
from netsom.graph import save_edge_list, write_text
from netsom.metrics import read_features_csv, write_features_csv
from netsom.som import (load_som_json, read_assignment_csv, read_cell_stats_csv,
                        save_som_json, write_assignment_csv, write_cell_stats_csv)
from oracles import (rows_load_edge_list, rows_read_assignment_csv,
                     rows_read_cell_stats_csv, rows_read_features_csv,
                     rows_read_trace_csv)

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
    "som": (load_som_json, '{"height": 1, "norm_params": {"max": [1, 1, 1, 1, 1], '
                           '"min": [0, 0, 0, 0, 0]}, "weights": [[0.5, 0, 1, 0, 1], '
                           '[0, 1, 0, 1, 0.5]], "width": 2}\n'),
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


# the one-row-at-a-time reference of each format that is parsed whole
ROWS = {"edges": rows_load_edge_list, "features": rows_read_features_csv,
        "assign": rows_read_assignment_csv, "cells": rows_read_cell_stats_csv,
        "trace": rows_read_trace_csv}


def _outcome(read, path):
    """What ``read`` makes of ``path``: the message of its ValueError, or the
    fields of what it returns, each array as its dtype, shape and bytes (so
    -0.0 differs from 0.0), a trace's lists stacked into one array."""
    try:
        obj = read(path)
    except ValueError as exc:
        return "ValueError", str(exc)
    fields = ({name: getattr(obj, name) for name in Graph.__slots__}
              if isinstance(obj, Graph) else dict(vars(obj)))
    for name, value in fields.items():
        if isinstance(value, list):
            value = np.array(value)
        if isinstance(value, np.ndarray):
            fields[name] = (value.dtype.str, value.shape, value.tobytes())
    return type(obj).__name__, fields


def assert_reads_like_rows(fmt, path, data: bytes):
    path.write_bytes(data)
    assert _outcome(VALID[fmt][0], path) == _outcome(ROWS[fmt], path)


# besides INSERTS, bytes that keep a file in the plain form parsed whole
PLAIN = [b"0", b"1", b"9", b"+", b".", b"e", b"E", b",", b" "]


@pytest.mark.parametrize("fmt", sorted(ROWS))
@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "replace", "delete"]),
                              st.integers(0, 200), st.sampled_from(INSERTS + PLAIN)),
                    max_size=4))
def test_mutated_file_reads_as_it_does_row_by_row(tmp_path_factory, fmt, ops):
    assert_reads_like_rows(fmt, tmp_path_factory.mktemp("diff") / f"input.{fmt}",
                           mutate(VALID[fmt][1].encode("utf-8"), ops))


# by hand: what numpy's C reader would take differently from int() and
# float() -- a trailing comment, an underscore, a tab, CRLF, a non-ASCII
# digit (U+0661, Arabic-Indic one) -- rows in another order, values out of
# range, fields past the csv module's size limit, and a blank line ahead of
# the line a check names
LONG = "0" * 200000
HAND_MADE = [
    ("edges", "# nodes: 4\n0 1 # x\n1 2\n"),
    ("edges", "1_0 1\n2 3\n"),
    ("edges", "# nodes: 4\n0\t1\n1 2\n"),
    ("edges", "# nodes: 4\r\n0 1\r\n1 2\r\n"),
    ("edges", "0 \u0661\n1 2\n"),
    ("edges", "# comment\n3 1\n\n0 2\n2 1\n1 3\n"),
    ("edges", "# nodes: 4\n"),
    ("features", "node,k,k_nn,b,L,C\n0,2,2,0.5,1.5,0 # x\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("features", "node,k,k_nn,b,L,C\n0,2,2,0.5,1_5,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("features", "node,k,k_nn,b,L,C\n0,2,2,0.5,\t1.5,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("features", "node,k,k_nn,b,L,C\r\n0,2,2,0.5,1.5,0\r\n1,2,2,0.5,1.5,0\r\n"
                 "2,2,2,0.5,1.5,0\r\n"),
    ("features", "node,k,k_nn,b,L,C\n0,\u0661,2,0.5,1.5,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("features", "node,k,k_nn,b,L,C\n2,2,2,.5,1.,-0\n0,+2,2,5e-1,1.5,0\n"
                 "1,2,2,0.5,1.5E0,0\n"),
    ("features", "node,k,k_nn,b,L,C\n0,1e0,2,0.5,1.5,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("assign", "node,X,Y\n0,0,0 # x\n1,1,0\n2,0,1\n"),
    ("assign", "node,X,Y\n0,1_0,0\n1,1,0\n2,0,1\n"),
    ("assign", "node,X,Y\n0,\t0,0\n1,1,0\n2,0,1\n"),
    ("assign", "node,X,Y\r\n0,0,0\r\n1,1,0\r\n2,0,1\r\n"),
    ("assign", "node,X,Y\n0,0,0\n1,\u0661,0\n2,0,1\n"),
    ("assign", "node,X,Y\n2,0,-0\n0,+0,0\n\n1,1,0\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1 # x\n0,1,0,2,0\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1\n0,1,0,2,0\n0.5,0,0,2,2\n0.5,1,0,1_0,1\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1\n0,1,0,2,0\n0.5,0,0,2,2\n0.5,1,0,\t1,1\n"),
    ("trace", "t,X,Y,S,I\r\n0,0,0,3,1\r\n0,1,0,2,0\r\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,\u0661\n0,1,0,2,0\n"),
    ("trace", "t,X,Y,S,I\n-0,1,0,3,1\n0,0,0,2,0\n5e-1,1,0,2,2\n.5,0,0,1,1\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1\n0,1,0,2,0\n0,0,0,2,2\n0.5,1,0,1,1\n"),
    ("features", "node,k,k_nn,b,L,C\n0,2,2,0.5,1e999,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("features", f"node,k,k_nn,b,L,C\n0,2,2,0.{LONG}5,1.5,0\n1,2,2,0.5,1.5,0\n"
                 "2,2,2,0.5,1.5,0\n"),
    ("assign", "node,X,Y\n0,2147483648,0\n1,1,0\n2,0,1\n"),
    ("trace", f"t{LONG},X,Y,S\n0,0,0,1\n"),
    ("cells", "X,Y,count,mean_k\n0,0,2,3\n1,0,0,\n"),
    ("cells", "X,Y,count,mean_k\r\n0,0,2,3\r\n1,0,1,4\r\n"),
    ("cells", "X,Y,count,mean_k\n0,0,2,3\n1,0,1_0,4\n"),
    ("cells", "X,Y,count,mean_k\n0,0,2,3\n1,0,1,4\n0,0,1,5\n"),
    ("cells", "X,Y,count,mean_k\n1,0,1,4\n0,0,2,3\n1,0,1,4\n0,0,2,3\n"),
    ("cells", "X,Y,count,mean_k\n0,0,2,3\n\n1,0,1,4\n0,0,1,5\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1\n\n0,1,0,2,0\n0,0,0,2,2\n0.5,1,0,1,1\n"),
    ("trace", "t,X,Y,S,I\n0,0,0,3,1\n0,1,0,2,0\n\n0.5,0,0,2,2\n0,1,0,1,1\n"),
    ("assign", "node,X,Y\n0,0,0\n\n1,1,0\n2,0,1\n"),
]


@pytest.mark.parametrize("fmt, text", HAND_MADE,
                         ids=[f"{fmt}{i}" for i, (fmt, _) in enumerate(HAND_MADE)])
def test_hand_made_file_reads_as_it_does_row_by_row(tmp_path, fmt, text):
    assert_reads_like_rows(fmt, tmp_path / f"input.{fmt}", text.encode("utf-8"))


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


# the writer of each format in VALID, plus plain text
WRITERS = {"edges": save_edge_list, "features": write_features_csv,
           "assign": write_assignment_csv, "cells": write_cell_stats_csv,
           "trace": write_trace_csv, "som": save_som_json, "text": write_text}


@pytest.mark.parametrize("fmt", WRITERS)
def test_writer_returns_digest_of_the_file_it_leaves(tmp_path, fmt):
    if fmt in VALID:
        read, text = VALID[fmt]
        (tmp_path / "input").write_text(text)
        obj = read(tmp_path / "input")
    else:
        obj = "na\u00efve \u2713\n"  # non-ASCII: the digest is of the UTF-8 bytes
    args = (tmp_path / "out", obj) if fmt == "text" else (obj, tmp_path / "out")
    digest = WRITERS[fmt](*args)
    assert digest == hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest()


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
