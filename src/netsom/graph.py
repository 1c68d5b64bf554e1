"""Undirected simple graphs with sorted CSR adjacency, edge-list file I/O,
and the CSV row parser shared by the per-node, cell and trace files."""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Iterable

import numpy as np

_HEADER_RE = re.compile(r"#\s*nodes:\s*(\d+)\s*$")


class Graph:
    """Immutable undirected simple graph over node ids 0..n-1.

    Adjacency is kept in CSR form (``indptr``, ``indices``) with each
    neighbor row sorted ascending, so neighbor iteration is deterministic.
    Construct via :func:`build_graph` or :func:`load_edge_list`; instances
    must not be mutated after construction.
    """

    __slots__ = ("n", "indptr", "indices", "degrees", "_nbr_lists")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.degrees = np.diff(indptr).astype(np.int64)
        self._nbr_lists: list[list[int]] | None = None
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

    def neighbor_lists(self) -> list[list[int]]:
        """Adjacency as plain Python lists; built once and cached."""
        if self._nbr_lists is None:
            idx = self.indices.tolist()
            ptr = self.indptr.tolist()
            self._nbr_lists = [idx[ptr[i]:ptr[i + 1]] for i in range(self.n)]
        return self._nbr_lists

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) int array with u < v, lexicographically sorted."""
        src, dst = self.directed_edges()
        keep = dst > src
        return np.column_stack([src[keep], dst[keep]])

    def directed_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both orientations of every edge as (sources, targets) arrays."""
        row = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        return row, self.indices.astype(np.int64)

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = np.array([0], dtype=np.int64)
        while frontier.size:
            nxt = gather_rows(self.indptr, self.indices,
                              self.degrees[frontier], frontier)
            nxt = nxt[~seen[nxt]]
            seen[nxt] = True
            frontier = np.unique(nxt)
        return bool(seen.all())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):  # identity hash; graphs are compared with == explicitly
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


def gather_rows(indptr: np.ndarray, indices: np.ndarray, counts: np.ndarray,
                nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR rows for ``nodes`` (duplicates preserved, in order)
    without a Python-level loop; ``counts`` must equal their row lengths."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    cum = np.cumsum(counts)
    flat = np.arange(total, dtype=np.int64)
    flat += np.repeat(indptr[nodes] - (cum - counts), counts)
    return indices[flat]


def build_graph(node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a Graph from unordered id pairs.

    Duplicate edges (in either orientation) collapse to a single edge.
    Self-loops and out-of-range ids raise ValueError.
    """
    n = int(node_count)
    if n < 0:
        raise ValueError("node_count must be nonnegative")
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
    both = np.concatenate([e, e[:, ::-1]]) if e.size else e
    keys = np.unique(both[:, 0] * n + both[:, 1]) if both.size else np.empty(0, np.int64)
    src = keys // n if keys.size else keys
    dst = keys % n if keys.size else keys
    indptr = np.zeros(n + 1, dtype=np.int64)
    if src.size:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n, indptr, dst.astype(np.int32))


def load_edge_list(path: str | Path) -> Graph:
    """Read a whitespace-separated "u v" edge list.

    Lines starting with "#" are comments; a "# nodes: N" header fixes the
    node count (otherwise 1 + max id is used). CRLF line endings accepted.
    """
    path = Path(path)
    header_n: int | None = None
    pairs: list[tuple[int, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _HEADER_RE.match(line)
                if m:
                    header_n = int(m.group(1))
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
            if header_n is not None and max(u, v) >= header_n:
                raise ValueError(f"{path}:{lineno}: node id out of range "
                                 f"[0, {header_n}) in {line!r}")
            pairs.append((u, v))
    if not pairs and header_n is None:
        raise ValueError(f"{path}: empty edge list with no '# nodes: N' header")
    n = header_n if header_n is not None else 1 + max(max(u, v) for u, v in pairs)
    try:
        return build_graph(n, pairs)
    except ValueError as exc:  # a self-loop, or a header placed after its edges
        raise ValueError(f"{path}: {exc}") from None


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write the canonical edge-list form: node-count header, one "u v" per line."""
    lines = [f"# nodes: {graph.n}\n"]
    lines.extend(f"{u} {v}\n" for u, v in graph.edge_array())
    Path(path).write_bytes("".join(lines).encode("utf-8"))


def read_node_csv(path: str | Path, header: tuple[str, ...],
                  types: tuple[type, ...]) -> list[tuple]:
    """Rows of a CSV keyed by node id in its first column, parsed with
    ``types`` and sorted by id; the ids must run 0..n-1. Malformed input
    raises ValueError naming the file, and the line where one applies."""
    with Path(path).open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        got = next(reader, [])
        if got != list(header):
            raise ValueError(f"{path}: unexpected header {got}")
        rows = [parse_row(path, reader, row, header, types)
                for row in filter(None, reader)]
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: node ids are not contiguous from 0")
    return rows


def nonnegative_int(field: str) -> int:
    """A cell coordinate or agent count: an int >= 0, else ValueError."""
    value = int(field)
    if value < 0:
        raise ValueError(field)
    return value


def parse_row(path: str | Path, reader, row: list[str], header, types) -> tuple:
    """``row``, the last one ``reader`` returned, parsed with ``types``. A row
    of another length, or with a field that does not parse, raises ValueError
    naming ``path:line``."""
    try:
        if len(row) != len(types):
            raise ValueError
        return tuple(t(v) for t, v in zip(types, row))
    except ValueError:
        raise ValueError(f"{path}:{reader.line_num}: expected "
                         f"{','.join(header)}, got {row}") from None
