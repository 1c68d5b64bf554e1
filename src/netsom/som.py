"""Self-organizing-map categorization of node feature vectors.

Classic online Kohonen training on a rectangular lattice: per sample, the
best-matching unit (BMU) is found by Euclidean distance and every cell moves
toward the sample under a Gaussian neighborhood. Learning rate and
neighborhood radius decay exponentially over all epochs*N presentations.
Cells are addressed as (X, Y) with linear index Y*width + X.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG
from .graph import nonnegative_int, parse_row, read_node_csv

ALPHA = (0.5, 0.01)   # start/end learning rate
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

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


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


def normalize_features(features) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Min-max scale each column to [0, 1]; a constant column maps to 0.5.

    Accepts a 2-D array or anything exposing ``as_matrix()``. Returns the
    scaled matrix and the (min, max) per column used for scaling.
    """
    if hasattr(features, "as_matrix"):
        features = features.as_matrix()
    mat = np.asarray(features, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need a 2-D feature matrix with at least 2 rows")
    if not np.isfinite(mat).all():
        raise ValueError("feature matrix contains non-finite values")
    lo = mat.min(axis=0)
    hi = mat.max(axis=0)
    span = hi - lo
    out = np.empty_like(mat)
    for j in range(mat.shape[1]):
        if span[j] == 0.0:
            out[:, j] = 0.5
        else:
            out[:, j] = (mat[:, j] - lo[j]) / span[j]
    return out, (lo, hi)


def apply_log_columns(mat: np.ndarray, columns: tuple[int, ...]) -> np.ndarray:
    """log10(1+x) on selected columns, for heavy-tailed features before
    min-max scaling. Returns a new matrix."""
    out = np.array(mat, dtype=np.float64, copy=True)
    for j in columns:
        col = out[:, j]
        if (col < 0).any():
            raise ValueError(f"column {j} has negative values; log scaling undefined")
        out[:, j] = np.log10(1.0 + col)
    return out


def quantization_error(weights: np.ndarray, data: np.ndarray) -> float:
    """Mean Euclidean distance from samples to their best-matching unit."""
    d2 = ((data[:, None, :] - weights[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean())


def train_som(data: np.ndarray, width: int = _SOM["width"],
              height: int = _SOM["height"], epochs: int = _SOM["epochs"],
              seed: int | None = None,
              norm_params: tuple[np.ndarray, np.ndarray] | None = None) -> SomGrid:
    """Train a rectangular SOM on (already normalized) feature rows.

    Weights initialize uniformly in [0,1]^dim from ``seed``; each epoch
    presents all samples in a fresh seeded shuffle. Raises if training fails
    to improve the quantization error over the random initialization.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("need a nonempty 2-D sample matrix")
    if width < 1 or height < 1 or width * height < 2:
        raise ValueError("lattice must contain at least 2 cells")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")

    n, dim = data.shape
    n_cells = width * height
    rng = np.random.default_rng(seed)
    weights = rng.random((n_cells, dim))

    # squared lattice distances between cells, in (X, Y) coordinates
    gx = np.arange(n_cells) % width
    gy = np.arange(n_cells) // width
    grid_d2 = (gx[:, None] - gx[None, :]) ** 2.0 + (gy[:, None] - gy[None, :]) ** 2.0

    a0, a1 = ALPHA
    s0 = max(width, height) / 2.0
    s1 = SIGMA_END

    total = epochs * n
    denom = max(total - 1, 1)
    la = math.log(a1 / a0)
    ls = math.log(s1 / s0)

    qe_initial = quantization_error(weights, data)

    t = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for i in order:
            x = data[i]
            frac = t / denom
            a_t = a0 * math.exp(la * frac)
            s_t = s0 * math.exp(ls * frac)
            diff = x - weights
            bmu = int(np.argmin((diff * diff).sum(axis=1)))  # first = lowest linear index
            h = np.exp(grid_d2[bmu] * (-0.5 / (s_t * s_t)))
            weights += (a_t * h)[:, None] * diff
            t += 1

    qe_final = quantization_error(weights, data)
    if qe_final > qe_initial:
        raise RuntimeError(
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
    if data.ndim != 2 or data.shape[1] != grid.dim:
        raise ValueError(
            f"feature dimension {data.shape[-1] if data.ndim == 2 else '?'} "
            f"does not match grid dimension {grid.dim}")
    d2 = ((data[:, None, :] - grid.weights[None, :, :]) ** 2).sum(axis=2)
    lin = np.argmin(d2, axis=1)
    return CellAssignment(width=grid.width, height=grid.height,
                          x=(lin % grid.width).astype(np.int64),
                          y=(lin // grid.width).astype(np.int64))


def cell_stats(assignment: CellAssignment, raw_features,
               feature_names: tuple[str, ...] | None = None) -> CellStats:
    """Per-cell node counts and arithmetic means of the raw feature columns."""
    if hasattr(raw_features, "as_matrix"):
        if feature_names is None:
            from .metrics import FEATURE_NAMES
            feature_names = FEATURE_NAMES
        raw_features = raw_features.as_matrix()
    mat = np.asarray(raw_features, dtype=np.float64)
    if mat.shape[0] != assignment.n:
        raise ValueError("assignment does not cover the feature rows")
    if feature_names is None:
        feature_names = tuple(f"f{j}" for j in range(mat.shape[1]))
    k = assignment.width * assignment.height
    lin = assignment.linear()
    counts = np.bincount(lin, minlength=k)
    means = np.full((k, mat.shape[1]), np.nan)
    occupied = counts > 0
    for j in range(mat.shape[1]):
        sums = np.bincount(lin, weights=mat[:, j], minlength=k)
        means[occupied, j] = sums[occupied] / counts[occupied]
    return CellStats(width=assignment.width, height=assignment.height,
                     counts=counts, means=means,
                     feature_names=tuple(feature_names))


# ---------------------------------------------------------------------------
# serialization


def save_som_json(grid: SomGrid, path: str | Path) -> None:
    doc = {
        "width": grid.width,
        "height": grid.height,
        "norm_params": {"min": grid.feat_min.tolist(),
                        "max": grid.feat_max.tolist()},
        "weights": [row.tolist() for row in grid.weights],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def load_som_json(path: str | Path) -> SomGrid:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    weights = np.asarray(doc["weights"], dtype=np.float64)
    return SomGrid(width=int(doc["width"]), height=int(doc["height"]),
                   weights=weights,
                   feat_min=np.asarray(doc["norm_params"]["min"], dtype=np.float64),
                   feat_max=np.asarray(doc["norm_params"]["max"], dtype=np.float64))


def write_assignment_csv(assignment: CellAssignment, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,X,Y\n")
        for i in range(assignment.n):
            fh.write(f"{i},{assignment.x[i]},{assignment.y[i]}\n")


def read_assignment_csv(path: str | Path, width: int | None = None,
                        height: int | None = None) -> CellAssignment:
    rows = read_node_csv(path, ("node", "X", "Y"),
                         (int, nonnegative_int, nonnegative_int))
    x = np.array([r[1] for r in rows], dtype=np.int64)
    y = np.array([r[2] for r in rows], dtype=np.int64)
    if width is None:
        width = int(x.max()) + 1 if x.size else 1
    if height is None:
        height = int(y.max()) + 1 if y.size else 1
    return CellAssignment(width=width, height=height, x=x, y=y)


def write_cell_stats_csv(stats: CellStats, path: str | Path) -> None:
    """One row per cell; empty cells keep blank mean fields."""
    cols = ",".join(f"mean_{name}" for name in stats.feature_names)
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"X,Y,count,{cols}\n")
        for lin in range(stats.width * stats.height):
            x, y = lin % stats.width, lin // stats.width
            if stats.counts[lin] == 0:
                blanks = "," * len(stats.feature_names)
                fh.write(f"{x},{y},0{blanks}\n")
            else:
                vals = ",".join(f"{v:.17g}" for v in stats.means[lin])
                fh.write(f"{x},{y},{stats.counts[lin]},{vals}\n")


def read_cell_stats_csv(path: str | Path) -> CellStats:
    with Path(path).open("r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["X", "Y", "count"] or not header[3:]:
            raise ValueError(f"{path}: unexpected cell-stats header {header}")
        names = tuple(h.removeprefix("mean_") for h in header[3:])
        # an empty cell (count 0) may leave its means blank; any other cell
        # needs numbers
        cell = (nonnegative_int,) * 3
        filled = cell + (float,) * len(names)
        empty = cell + (_float_or_blank,) * len(names)
        rows = [parse_row(path, reader, r, header,
                          empty if r[2:3] == ["0"] else filled)
                for r in filter(None, reader)]
    if not rows:
        raise ValueError(f"{path}: no cell rows after the header")
    width = 1 + max(r[0] for r in rows)
    height = 1 + max(r[1] for r in rows)
    counts = np.zeros(width * height, dtype=np.int64)
    means = np.full((width * height, len(names)), np.nan)
    for x, y, count, *vals in rows:
        lin = y * width + x
        counts[lin] = count
        if count > 0:
            means[lin] = vals
    return CellStats(width=width, height=height, counts=counts, means=means,
                     feature_names=names)


def _float_or_blank(field: str) -> float:
    """An empty cell's mean field: a number, or NaN when blank."""
    return float(field) if field else np.nan
