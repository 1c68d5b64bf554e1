"""Undirected simple graphs with sorted CSR adjacency, edge-list file I/O,
and the one CSV reader, lattice index and file writer of every artifact."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import math
import os
import re
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

_HEADER_RE = re.compile(r"#\s*nodes:\s*(\d+)\s*$")


class Graph:
    """Immutable undirected simple graph over node ids 0..n-1.

    Adjacency is kept in CSR form (``indptr``, ``indices``) with each
    neighbor row sorted ascending, so neighbor iteration is deterministic.
    Construct via :func:`build_graph` or :func:`load_edge_list`, or from a
    run of such a graph's rows that no edge leaves, renumbered from 0;
    instances must not be mutated after construction.
    """

    __slots__ = ("n", "indptr", "indices", "degrees")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr).astype(np.int64)
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    @property
    def mean_degree(self) -> float:
        return 2.0 * self.num_edges / self.n if self.n else 0.0

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (read-only view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) int array with u < v, lexicographically sorted."""
        src, dst = self.directed_edges()
        keep = dst > src
        return np.column_stack([src[keep], dst[keep]])

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge as (sources, targets) arrays."""
        row = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return row, self.indices.astype(np.int64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def gather_rows(indptr: np.ndarray, counts: np.ndarray,
                nodes: np.ndarray) -> np.ndarray:
    """Slot positions of the concatenated CSR rows of ``nodes`` (duplicates
    preserved, in order), without a Python-level loop: ``indices[slots]``
    are the rows' entries. ``counts`` must equal their row lengths. No
    nodes, or rows all empty, give no slots."""
    slots = (indptr[1:][nodes] - counts.cumsum()).repeat(counts)
    slots += np.arange(slots.size)
    return slots


def build_graph(node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a Graph from unordered id pairs.

    Duplicate edges (in either orientation) collapse to a single edge.
    Self-loops, out-of-range ids and a node count beyond the int32 range of
    ``Graph.indices`` raise ValueError.
    """
    n = int(node_count)
    if not 0 <= n < 2**31:
        raise ValueError(f"node count {n} is outside the int32 range of the "
                         f"adjacency")
    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be pairs of node ids")
    if e.size:
        if e.min() < 0 or e.max() >= n:
            bad = e[(e < 0).any(axis=1) | (e >= n).any(axis=1)][0]
            raise ValueError(f"edge ({bad[0]}, {bad[1]}) has id out of range [0, {n})")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            raise ValueError(f"self-loop on node {e[loops][0][0]} is not allowed")
    # one key per directed edge, u*n + v; sorting them orders the CSR by
    # (row, neighbor), and the first key of each run of equals drops repeats.
    # A sort and a mask, not np.unique, which on numpy >= 2.3 builds a hash
    # set before it sorts.
    u, v = e.T
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    src, dst = np.divmod(keys[first], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, dst.astype(np.int32))


def load_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated "u v" edge list.

    Lines starting with "#" are comments; a "# nodes: N" header fixes the
    node count (otherwise 1 + max id is used). CRLF line endings accepted.
    The whole file is parsed by numpy's C reader when it is the plain form
    that :func:`save_edge_list` writes (one leading comment, then ASCII
    "u v" lines); any other file, and any it finds wrong, is read line by
    line, which gives the same graph or names the line at fault.
    """
    path = Path(path)
    graph = _edge_list_whole(path.read_bytes())
    return graph if graph is not None else _edge_list_rows(path)


def _edge_list_whole(data: bytes) -> Graph | None:
    """The graph of an edge list in the plain form, or None when the file
    needs :func:`_edge_list_rows` to read it or to name what is wrong."""
    head, _, body = data.partition(b"\n") if data.startswith(b"#") else (b"", b"", data)
    if not head.isascii() or b"\r" in head or body.translate(None, b"0123456789 \n"):
        return None
    try:
        match = _HEADER_RE.match(head.decode().strip())
        header_n = nonnegative_int(match.group(1)) if match else None
        pairs = (np.loadtxt(io.BytesIO(body), dtype=np.int64, delimiter=" ",
                            comments=None, ndmin=2)
                 if body.strip() else np.empty((0, 2), dtype=np.int64))
        if header_n is None and not pairs.size:
            return None
        return build_graph(header_n if header_n is not None else 1 + int(pairs.max()),
                           pairs)
    except ValueError:  # a header past int32, a blank field, a ragged line, or
        return None     # what build_graph rejects: an id out of range, a self-loop


def _edge_list_rows(path: Path) -> Graph:
    """:func:`load_edge_list` one line at a time, for any file that is not
    in the plain form."""
    header_n: int | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_utf8_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                try:
                    header_n = nonnegative_int(m.group(1))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: node count {m.group(1)} "
                                     f"is beyond the int32 range") from None
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer token in {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"{path}:{lineno}: negative node id in {line!r}")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop on node {u} is not allowed")
        if header_n is not None and max(u, v) >= header_n:
            raise ValueError(f"{path}:{lineno}: node id out of range "
                             f"[0, {header_n}) in {line!r}")
        pairs.append((u, v))
    if not pairs and header_n is None:
        raise ValueError(f"{path}: empty edge list with no '# nodes: N' header")
    n = header_n if header_n is not None else 1 + max(max(u, v) for u, v in pairs)
    try:
        return build_graph(n, pairs)
    except ValueError as exc:  # an id above a later header, or beyond int32
        raise ValueError(f"{path}: {exc}") from None


def save_edge_list(graph: Graph, path: str | Path) -> str:
    """Write the canonical edge-list form: node-count header, one "u v" per
    line; returns the sha256 of the bytes written."""
    u, v = graph.edge_array().T.tolist()
    return write_text(path, f"# nodes: {graph.n}\n" + format_rows("%d %d\n", u, v))


def format_rows(row: str, *columns: list) -> str:
    """The rows of equal-length ``columns`` (lists), each through the
    %-format ``row``, in one formatting call rather than one per row."""
    return (row * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def write_text(path: str | Path, text: str) -> str:
    """``text`` as UTF-8 with LF line endings, through a temporary file beside
    ``path`` that replaces it in one rename, so a failed write leaves the old
    file and no temporary one; returns the sha256 of the bytes written."""
    path = Path(path)
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return hashlib.sha256(data).hexdigest()


def read_csv(path: str | Path, header_ok, types) -> tuple[list[str], list[tuple], list[int]]:
    """(header, rows, their line numbers) of a UTF-8 CSV whose header
    ``header_ok`` accepts, each non-blank row parsed with ``types(header,
    row)``, one callable per field. Malformed input, or no rows, raises
    ValueError naming the file, and the line where one applies."""
    reader = csv.reader(_utf8_lines(path))
    rows, lines = [], []
    try:
        header = next(reader, [])
        if not header_ok(header):
            raise ValueError(f"{path}: unexpected header {header}")
        for row in filter(None, reader):
            fields = types(header, row)
            try:
                if len(row) != len(fields):
                    raise ValueError
                rows.append(tuple(t(v) for t, v in zip(fields, row)))
            except ValueError:
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{','.join(header)}, got {row}") from None
            lines.append(reader.line_num)
    except csv.Error as exc:  # a field beyond the csv module's size limit
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no rows after the header")
    return header, rows, lines


def _utf8_lines(path: str | Path):
    """The lines of a text file read as UTF-8; other bytes raise ValueError
    naming the file."""
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not UTF-8 text") from None


def lattice(path: str | Path, rows: list[tuple], lines: list[int],
            keys: int = 0) -> tuple[int, int, list[tuple]]:
    """(1 + largest X, 1 + largest Y, the rows sorted by (key..., Y, X)) of a
    table whose rows, read at ``lines``, hold ``keys`` key fields, then X, Y,
    and list every cell once per key (a trace's key is the time). A repeat
    names its line; a wrong row count raises before the lattice is allocated."""
    cells = [row[:keys + 2] for row in rows]
    width = 1 + max(cell[-2] for cell in cells)
    height = 1 + max(cell[-1] for cell in cells)
    seen = set()
    for cell, line in zip(cells, lines):
        if cell in seen:
            raise ValueError(f"{path}:{line}: cell ({cell[-2]}, {cell[-1]}) "
                             f"is listed twice")
        seen.add(cell)
    if len(cells) != len({cell[:-2] for cell in cells}) * width * height:
        raise ValueError(f"{path}: {len(cells)} rows do not list each cell of "
                         f"a {width}x{height} lattice once")
    return width, height, sorted(rows, key=lambda r: (*r[:keys], r[keys + 1], r[keys]))


def whole_table(data: bytes, header_ok, types) -> tuple[list[str], list[np.ndarray]] | None:
    """(header, one array per field) of the bytes of a CSV, parsed whole by
    numpy's C reader as :func:`read_csv` would parse them one row at a time.
    ``types(header, None)`` gives each field's :data:`C_TYPES` key. Only
    ASCII in the plain form qualifies: no quote, CR or NUL, no line past the
    csv module's field size limit, rows of digits, signs, points, exponents
    and commas, where the C reader and ``int``/``float`` agree. Any other
    file, or a value out of its type's range, gives None: read it with
    :func:`read_csv`, which names the line at fault."""
    head, _, body = data.partition(b"\n")
    if (not head.isascii() or any(c in head for c in b'"\r\0') or not body.strip()
            or body.translate(None, b"0123456789+-.eE,\n")
            or max(map(len, body.split(b"\n"))) > csv.field_size_limit()):
        return None
    header = head.decode().split(",")
    if max(map(len, header)) > csv.field_size_limit() or not header_ok(header):
        return None
    dtypes = [C_TYPES[t] for t in types(header, None)]
    try:
        with warnings.catch_warnings():
            # older numpy parses "1.0" into an int field through a float, and
            # warns that it will stop; int() never took it
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=1,
                              dtype=[(str(i), t) for i, t in enumerate(dtypes)])
    except (ValueError, DeprecationWarning):  # a malformed field, a row of another width
        return None
    columns = [rows[name] for name in rows.dtype.names]
    for column in columns:
        if not (np.isfinite(column).all() if column.dtype == np.float64
                else ((column >= 0) & (column < 2**31)).all()):
            return None
    return header, columns


def read_node_csv(path: str | Path, header: tuple[str, ...],
                  types: tuple[type, ...]) -> list[np.ndarray]:
    """The columns of a CSV keyed by node id in its first column, parsed
    with ``types`` (:data:`C_TYPES` keys) and sorted by id; the ids must run
    0..n-1. Parsed whole by :func:`whole_table` where it can, else one row at
    a time. Malformed input raises ValueError naming the file, and the line
    where one applies."""
    table = whole_table(Path(path).read_bytes(), lambda got: got == list(header),
                        lambda _header, _row: types)
    if table is not None:
        columns = table[1]
        order = columns[0].argsort()
        if (columns[0][order] == np.arange(order.size)).all():
            return [column[order] for column in columns]
    return _node_csv_rows(path, header, types)


def _node_csv_rows(path: str | Path, header: tuple[str, ...],
                   types: tuple[type, ...]) -> list[np.ndarray]:
    """:func:`read_node_csv` one row at a time."""
    _, rows, _ = read_csv(path, lambda got: got == list(header),
                          lambda _header, _row: types)
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids are not contiguous from 0")
    return [np.array(column, dtype=C_TYPES[t]) for column, t in zip(zip(*rows), types)]


def nonnegative_int(field: str) -> int:
    """A node id, degree, cell coordinate or agent count: an int in
    [0, 2**31), the int32 range of ``Graph.indices``, else ValueError."""
    value = int(field)
    if not 0 <= value < 2**31:
        raise ValueError(field)
    return value


def finite_float(field: str) -> float:
    """A finite float (a feature, a cell mean, a time), else ValueError."""
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(field)
    return value


# the dtype that numpy's C reader parses each field type into
C_TYPES = {nonnegative_int: np.int64, finite_float: np.float64}
