"""Self-organizing-map categorization of node feature vectors.

Kohonen's batch map on a rectangular lattice, with no learning rate: each
epoch assigns every sample to its best-matching unit (BMU) by Euclidean
distance, then sets every cell to the Gaussian-neighborhood-weighted mean of
all samples. The neighborhood radius decays exponentially once per epoch.
Cells are addressed as (X, Y) with linear index Y*width + X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, ConfigError, check
from .graph import (finite_float, format_rows, lattice, nonnegative_int,
                    read_node_csv, read_table, write_text)
from .metrics import FEATURE_NAMES, NodeFeatures

SIGMA_END = 0.5       # end radius; the start radius is max(width, height)/2
_SOM = DEFAULT_CONFIG["som"]


@dataclass
class SomGrid:
    """Trained lattice: per-cell weight vectors plus the feature scaling
    that produced the training data."""

    width: int
    height: int
    weights: np.ndarray   # (width*height, dim), row L = Y*width + X
    feat_min: np.ndarray  # per-feature normalization minima
    feat_max: np.ndarray
    qe_initial: float | None = field(default=None, compare=False)
    qe_final: float | None = field(default=None, compare=False)


@dataclass
class CellAssignment:
    """Per-node BMU cell coordinates."""

    width: int
    height: int
    x: np.ndarray  # (n,) int
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.x.size

    def linear(self) -> np.ndarray:
        return self.y * self.width + self.x


@dataclass
class CellStats:
    """Per-cell node counts and raw-feature means; empty cells carry NaN
    means and are flagged, never zero-filled."""

    width: int
    height: int
    counts: np.ndarray        # (n_cells,) int
    means: np.ndarray         # (n_cells, dim), NaN rows for empty cells
    feature_names: tuple[str, ...]

    @property
    def empty(self) -> np.ndarray:
        return self.counts == 0


def normalize_features(mat: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Min-max scale each column to [0, 1]; a constant column maps to 0.5.

    Returns the scaled matrix and the (min, max) per column used for scaling.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least 2 rows")
    if not np.isfinite(mat).all():
        raise ValueError("feature matrix contains non-finite values")
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = hi - lo
    out = np.where(span == 0.0, 0.5, (mat - lo) / np.where(span == 0.0, 1.0, span))
    return out, (lo, hi)


def _sq_dists(data: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(n, cells) squared Euclidean distances from every row to every cell,
    summed one feature at a time so no temporary exceeds (n, cells)."""
    d2 = np.zeros((data.shape[0], weights.shape[0]))
    for j in range(data.shape[1]):
        d2 += (data[:, j, None] - weights[None, :, j]) ** 2
    return d2


def _cell_sums(lin: np.ndarray, mat: np.ndarray, cells: int):
    """Row counts and column sums of ``mat`` per cell, row i in cell lin[i]."""
    sums = np.stack([np.bincount(lin, weights=col, minlength=cells)
                     for col in mat.T], axis=1)
    return np.bincount(lin, minlength=cells), sums


def quantization_error(weights: np.ndarray, data: np.ndarray) -> float:
    """Mean Euclidean distance from samples to their best-matching unit."""
    return float(np.sqrt(_sq_dists(data, weights).min(axis=1)).mean())


def train_som(data: np.ndarray, width: int = _SOM["width"],
              height: int = _SOM["height"], epochs: int = _SOM["epochs"],
              seed: int | None = None,
              norm_params: tuple[np.ndarray, np.ndarray] | None = None) -> SomGrid:
    """Train a rectangular SOM on (already normalized) feature rows with
    Kohonen's batch map, which has no learning rate and no sample order.

    Weights initialize uniformly in [0,1]^dim from ``seed``. A cell whose
    neighborhood weights all underflow to 0 keeps its vector. Raises
    ValueError if training fails to improve the quantization error over the
    random initialization.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("need a nonempty 2-D sample matrix")
    check("som", {"width": width, "height": height, "epochs": epochs})
    if width * height < 2:
        raise ConfigError(f"som.width * som.height must be >= 2, got {width}x{height}")

    dim = data.shape[1]
    n_cells = width * height
    rng = np.random.default_rng(seed)
    weights = rng.random((n_cells, dim))

    # squared lattice distances between cells, in (X, Y) coordinates
    gy, gx = np.divmod(np.arange(n_cells), width)
    grid_d2 = (gx[:, None] - gx[None, :]) ** 2.0 + (gy[:, None] - gy[None, :]) ** 2.0

    qe_initial = quantization_error(weights, data)

    for sigma in np.geomspace(max(width, height) / 2.0, SIGMA_END, epochs):
        bmu = _sq_dists(data, weights).argmin(axis=1)  # first = lowest linear index
        counts, sums = _cell_sums(bmu, data, n_cells)
        h = np.exp(grid_d2 * (-0.5 / (sigma * sigma)))
        # h @ counts and h @ sums, summed by numpy so no BLAS build moves the bytes
        den = (h * counts).sum(axis=1)
        live = den > 0
        weights[live] = (h[:, :, None] * sums).sum(axis=1)[live] / den[live, None]

    qe_final = quantization_error(weights, data)
    if qe_final > qe_initial:
        raise ValueError(
            f"SOM training worsened quantization error "
            f"({qe_initial:.6g} -> {qe_final:.6g})")

    if norm_params is None:
        norm_params = (np.zeros(dim), np.ones(dim))
    return SomGrid(width=width, height=height, weights=weights,
                   feat_min=np.asarray(norm_params[0], dtype=np.float64),
                   feat_max=np.asarray(norm_params[1], dtype=np.float64),
                   qe_initial=qe_initial, qe_final=qe_final)


def assign_nodes(grid: SomGrid, data: np.ndarray) -> CellAssignment:
    """Map every sample to its BMU cell; distance ties go to the lowest
    linear index Y*width + X."""
    data = np.asarray(data, dtype=np.float64)
    dim = grid.weights.shape[1]
    if data.ndim != 2 or data.shape[1] != dim:
        raise ValueError(
            f"feature dimension {data.shape[-1] if data.ndim == 2 else '?'} "
            f"does not match grid dimension {dim}")
    lin = _sq_dists(data, grid.weights).argmin(axis=1)
    return CellAssignment(width=grid.width, height=grid.height,
                          x=(lin % grid.width).astype(np.int64),
                          y=(lin // grid.width).astype(np.int64))


def cell_stats(assignment: CellAssignment, raw_features: np.ndarray,
               feature_names: tuple[str, ...]) -> CellStats:
    """Per-cell node counts and arithmetic means of the raw feature columns."""
    mat = np.asarray(raw_features, dtype=np.float64)
    if mat.shape[0] != assignment.n:
        raise ValueError("assignment does not cover the feature rows")
    counts, sums = _cell_sums(assignment.linear(), mat,
                              assignment.width * assignment.height)
    means = np.full(sums.shape, np.nan)
    occupied = counts > 0
    means[occupied] = sums[occupied] / counts[occupied, None]
    return CellStats(width=assignment.width, height=assignment.height,
                     counts=counts, means=means,
                     feature_names=tuple(feature_names))


def categorize(features: NodeFeatures, width: int = _SOM["width"],
               height: int = _SOM["height"], epochs: int = _SOM["epochs"],
               seed: int | None = None, log_features: tuple[str, ...] = ()
               ) -> tuple[SomGrid, CellAssignment, CellStats]:
    """The categorization step: log10(1+x) on the ``log_features`` columns,
    then min-max scaling; train the map on the scaled rows, assign every
    node to its cell, and average the raw features per cell."""
    check("som", {"log_features": log_features})
    raw = features.as_matrix()
    mat = raw.copy()
    for name in log_features:
        col = mat[:, FEATURE_NAMES.index(name)]
        if (col < 0).any():
            raise ValueError(f"feature {name} has negative values; log scaling undefined")
        col[:] = np.log10(1.0 + col)
    normalized, norm_params = normalize_features(mat)
    grid = train_som(normalized, width, height, epochs, seed, norm_params)
    assignment = assign_nodes(grid, normalized)
    return grid, assignment, cell_stats(assignment, raw, FEATURE_NAMES)


# ---------------------------------------------------------------------------
# serialization


def save_som_json(grid: SomGrid, path: str | Path) -> str:
    """The lattice as JSON; returns the sha256 of the bytes written."""
    doc = {
        "width": grid.width,
        "height": grid.height,
        "norm_params": {"min": grid.feat_min.tolist(),
                        "max": grid.feat_max.tolist()},
        "weights": [row.tolist() for row in grid.weights],
    }
    return write_text(path, json.dumps(doc, sort_keys=True) + "\n")


def load_som_json(path: str | Path) -> SomGrid:
    """The map that :func:`save_som_json` writes. Text that is not UTF-8
    JSON, a missing or mistyped key, other than width x height weight rows,
    a vector without one number per feature, or a non-finite number raises
    ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON
        raise ValueError(f"{path}: not a UTF-8 JSON map: {exc}") from None
    try:
        width, height, rows = doc["width"], doc["height"], doc["weights"]
        vectors = [doc["norm_params"]["min"], doc["norm_params"]["max"]]
    except (KeyError, TypeError):
        raise ValueError(f"{path}: expected the keys width, height, weights "
                         f"and norm_params with min and max") from None
    if not all(type(v) is int and v > 0 for v in (width, height)):
        raise ValueError(f"{path}: width and height must be positive integers")
    # the row count bounds the lattice before anything of its size exists
    if type(rows) is not list or len(rows) != width * height:
        raise ValueError(f"{path}: a {width}x{height} map needs "
                         f"{width * height} weight rows")
    dim = len(FEATURE_NAMES)
    vectors += rows
    if not all(type(v) is list and len(v) == dim
               and all(type(x) in (int, float) for x in v) for v in vectors):
        raise ValueError(f"{path}: norm_params min and max and every weight "
                         f"row must hold {dim} numbers")
    try:
        mat = np.array(vectors, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{path}: a number is beyond the float range") from None
    if not np.isfinite(mat).all():
        raise ValueError(f"{path}: a number is not finite")
    return SomGrid(width=width, height=height, weights=mat[2:],
                   feat_min=mat[0], feat_max=mat[1])


def write_assignment_csv(assignment: CellAssignment, path: str | Path) -> str:
    """One node,X,Y row per node; returns the sha256 of the bytes written."""
    rows = format_rows("%d,%d,%d\n", list(range(assignment.n)),
                       assignment.x.tolist(), assignment.y.tolist())
    return write_text(path, "node,X,Y\n" + rows)


def read_assignment_csv(path: str | Path) -> CellAssignment:
    """The lattice size is inferred as 1 + the largest X and Y. The
    coordinates are read-only: a run shares one parse between its stages."""
    _, x, y = read_node_csv(path, ("node", "X", "Y"), (nonnegative_int,) * 3)
    x.setflags(write=False)
    y.setflags(write=False)
    return CellAssignment(width=int(x.max()) + 1, height=int(y.max()) + 1,
                          x=x, y=y)


def write_cell_stats_csv(stats: CellStats, path: str | Path) -> str:
    """One row per cell, blank means for an empty one; returns the sha256
    of the bytes written."""
    cols = ",".join(f"mean_{name}" for name in stats.feature_names)
    rows = [f"X,Y,count,{cols}\n"]
    for lin in range(stats.width * stats.height):
        x, y = lin % stats.width, lin // stats.width
        count = stats.counts[lin]
        vals = ",".join(f"{v:.17g}" if count else "" for v in stats.means[lin])
        rows.append(f"{x},{y},{count},{vals}\n")
    return write_text(path, "".join(rows))


def read_cell_stats_csv(path: str | Path) -> CellStats:
    def types(header, row):
        # an empty cell (count 0) may leave its means blank, which only the
        # row route parses (row None is the C route); any other cell needs
        # finite numbers
        mean = _float_or_blank if row and row[2:3] == ["0"] else finite_float
        return (nonnegative_int,) * 3 + (mean,) * (len(header) - 3)

    header, columns, lines = read_table(
        path, lambda h: h[:3] == ["X", "Y", "count"] and len(h) > 3, types)
    width, height, order = lattice(path, columns, lines)
    names = tuple(h.removeprefix("mean_") for h in header[3:])
    counts = columns[2][order]
    means = np.column_stack(columns[3:])[order]
    means[counts == 0] = np.nan
    counts.setflags(write=False)  # a run may share one parse between stages
    means.setflags(write=False)
    return CellStats(width=width, height=height, counts=counts, means=means,
                     feature_names=names)


def _float_or_blank(field: str) -> float:
    """An empty cell's mean field: a number, or NaN when blank."""
    return float(field) if field else np.nan
