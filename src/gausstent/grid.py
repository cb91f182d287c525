"""Discretization of the upper half-space and of the measure dgamma(y) dt/t.

A HalfSpaceGrid is a tensor grid: uniform nodes in a compact spatial box
(one axis per dimension, n in {1, 2}) times log-uniform nodes in t.  The
Haar weight dt/t is exact on the log grid (it becomes a constant
delta(log t)); spatial quadrature is the trapezoid rule, which on the
Gaussian weight is accurate far beyond any tolerance used here as long as
functions vanish near the box boundary.

Functions are assumed compactly supported inside the box.  With the default
box [-8, 8] the truncated Gaussian mass is below 1e-27.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ._kernels import _GTNT_MAGIC, _GTNT_VERSION, _csv_rows, _write_gtnt
from .geometry import cutoff_m

__all__ = [
    "GridFunction",
    "HalfSpaceGrid",
    "RegionMask",
    "SpatialFunction",
    "halfspace_integral",
    "lp_gamma_norm",
    "read_grid_function",
    "write_grid_function",
]

_CSV_NODE_TOL = 1e-6           # cells a CSV row may sit off its grid node


@dataclass(eq=True)
class HalfSpaceGrid:
    """Tensor grid over box x [t_min, t_max], log-uniform in t."""

    spatial_box: tuple          # ((lo, hi), ...) one pair per axis
    nx: tuple                   # nodes per axis
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.spatial_box)
        self.spatial_box = box
        self.nx = tuple(int(k) for k in np.atleast_1d(self.nx))
        if len(box) != len(self.nx):
            raise ValueError("one nx per spatial axis required")
        if len(box) not in (1, 2):
            raise ValueError("only n in {1, 2} supported")
        if not np.all(np.isfinite(box + ((self.t_min, self.t_max),))):
            raise ValueError("the spatial box and the t range must be finite")
        if not (0.0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.nt < 2 or any(k < 2 for k in self.nx):
            raise ValueError("need at least 2 nodes per axis")
        for (a, b) in box:
            if not a < b:
                raise ValueError("degenerate spatial box")

    # -- spatial structure -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.spatial_box)

    @cached_property
    def axes(self) -> tuple:
        return tuple(np.linspace(a, b, k)
                     for (a, b), k in zip(self.spatial_box, self.nx))

    @cached_property
    def spacing(self) -> tuple:
        return tuple((b - a) / (k - 1)
                     for (a, b), k in zip(self.spatial_box, self.nx))

    @property
    def cell(self) -> float:
        """One-cell tolerance scale: the largest spatial spacing."""
        return max(self.spacing)

    @cached_property
    def points(self) -> np.ndarray:
        """All spatial nodes, flattened C-order, shape (N, n)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    @property
    def n_spatial(self) -> int:
        return int(np.prod(self.nx))

    @cached_property
    def wy(self) -> np.ndarray:
        """Trapezoid quadrature weights over spatial nodes, flattened."""
        per_axis = []
        for d, k in zip(self.spacing, self.nx):
            w = np.full(k, d)
            w[0] = w[-1] = d / 2.0
            per_axis.append(w)
        w = per_axis[0]
        for wa in per_axis[1:]:
            w = np.multiply.outer(w, wa)
        return w.ravel()

    @cached_property
    def gamma_y(self) -> np.ndarray:
        """Gaussian quadrature weights exp(-|y|^2) * wy at spatial nodes."""
        sq = np.sum(self.points ** 2, axis=1)
        return np.exp(-sq) * self.wy

    @cached_property
    def m_y(self) -> np.ndarray:
        """Cutoff m at every spatial node."""
        return cutoff_m(self.points)

    # -- t structure -------------------------------------------------------

    @cached_property
    def t(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.nt)

    @cached_property
    def wt(self) -> np.ndarray:
        """Trapezoid weights in log t; this realizes dt/t exactly."""
        dlog = (np.log(self.t_max) - np.log(self.t_min)) / (self.nt - 1)
        w = np.full(self.nt, dlog)
        w[0] = w[-1] = dlog / 2.0
        return w

    # -- helpers -----------------------------------------------------------

    def nearest_spatial_index(self, y) -> int:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        idx = []
        for ax, yc in zip(self.axes, y):
            idx.append(int(np.clip(np.round((yc - ax[0]) / (ax[1] - ax[0])), 0, len(ax) - 1)))
        return int(np.ravel_multi_index(tuple(idx), self.nx))

    def nearest_t_index(self, t: float) -> int:
        u = (np.log(t) - np.log(self.t_min)) / (np.log(self.t_max) - np.log(self.t_min))
        return int(np.clip(np.round(u * (self.nt - 1)), 0, self.nt - 1))

    def contains_spatial(self, y) -> bool:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return all(a <= yc <= b for (a, b), yc in zip(self.spatial_box, y))


@dataclass
class GridFunction:
    """Real values on (spatial node, t node); immutable by convention."""

    grid: HalfSpaceGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_spatial, self.grid.nt):
            raise ValueError(f"values shape {v.shape} does not match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        v.setflags(write=False)
        self.values = v

    @classmethod
    def zero(cls, grid: HalfSpaceGrid) -> "GridFunction":
        return cls(grid, np.zeros((grid.n_spatial, grid.nt)))

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.grid != self.grid:
            raise ValueError("grid mismatch")
        return GridFunction(self.grid, self.values + other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass
class SpatialFunction:
    """Real values over spatial nodes only (S f, C f, M f, h(x), ...)."""

    grid: HalfSpaceGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_spatial,):
            raise ValueError("values shape does not match grid")
        self.values = v


@dataclass
class RegionMask:
    """Boolean set of spatial grid nodes (a subset of R^n)."""

    grid: HalfSpaceGrid
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.grid.n_spatial,):
            raise ValueError("spatial mask shape mismatch")
        self.mask = m


def halfspace_integral(f: GridFunction) -> float:
    """Sum f * exp(-|y|^2) wy * w(log t) over all nodes (trapezoid ends).

    numpy's pairwise reduction keeps order sensitivity below 1e-12 relative.
    """
    g = f.grid
    w = f.values * g.gamma_y[:, None]
    w *= g.wt[None, :]
    return float(np.sum(w))


def lp_gamma_norm(g: SpatialFunction, p) -> float:
    """(sum |g|^p exp(-|x|^2) wy)^{1/p}; p = inf gives max |g|."""
    p = float(p)
    if p == np.inf:
        return float(np.max(np.abs(g.values))) if g.values.size else 0.0
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(g.values) ** p * g.grid.gamma_y) ** (1.0 / p))


# -- I/O ------------------------------------------------------------------


def write_grid_function(f: GridFunction, path) -> None:
    """CSV (header: y..., t, value) or binary GTNT by file extension."""
    path = Path(path)
    if path.suffix == ".csv":
        _write_csv(f, path)
    else:
        _write_gtnt(f.grid, path, f.values)


def read_grid_function(path, grid: HalfSpaceGrid | None = None) -> GridFunction:
    path = Path(path)
    if path.suffix == ".csv":
        return _read_csv(path, grid)
    f = _read_gtnt(path)
    if grid is not None and f.grid != grid:
        raise ValueError("file grid does not match the requested grid")
    return f


def _write_csv(f: GridFunction, path: Path) -> None:
    g = f.grid
    cols = [f"y{d}" for d in range(g.n)] + ["t", "value"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, y in enumerate(g.points):
            for j, tj in enumerate(g.t):
                ys = ",".join(repr(float(c)) for c in y)
                fh.write(f"{ys},{float(tj)!r},{float(f.values[i, j])!r}\n")


def _read_csv(path: Path, grid: HalfSpaceGrid | None) -> GridFunction:
    """One row per grid node, each within _CSV_NODE_TOL cells of its node
    (in log t for the t column), every node exactly once."""
    data = _csv_rows(path, 1, "value")
    n = data.shape[1] - 2
    ys, ts, vals = data[:, :n], data[:, n], data[:, n + 1]
    if grid is None:
        grid = _infer_grid(ys, ts)
    if n != grid.n:
        raise ValueError(f"{path}: {n} coordinate columns for a grid of dimension {grid.n}")
    if len(data) != grid.n_spatial * grid.nt:
        raise ValueError(f"{path}: {len(data)} rows for {grid.n_spatial * grid.nt} nodes")
    dlog = (np.log(grid.t_max) - np.log(grid.t_min)) / (grid.nt - 1)
    cells = [(ys[:, d] - grid.axes[d][0]) / grid.spacing[d] for d in range(n)]
    cells.append((np.log(ts) - np.log(grid.t_min)) / dlog)
    index = []
    for u, size in zip(cells, grid.nx + (grid.nt,)):
        k = np.rint(u)
        off = ~((np.abs(u - k) <= _CSV_NODE_TOL) & (k >= 0) & (k < size))
        if off.any():
            row = int(np.argmax(off))
            raise ValueError(f"{path}: row {row + 1} ({', '.join(map(repr, data[row, :-1]))})"
                             " is not a node of the grid")
        index.append(k.astype(np.intp))
    flat = np.ravel_multi_index(tuple(index), grid.nx + (grid.nt,))
    seen = np.zeros(flat.size, dtype=bool)      # one row per node: unseen means twice
    seen[flat] = True
    if not seen.all():
        raise ValueError(f"{path}: a grid node appears in more than one row")
    f = np.empty(grid.n_spatial * grid.nt)
    f[flat] = vals
    return GridFunction(grid, f.reshape(grid.n_spatial, grid.nt))


def _infer_grid(ys: np.ndarray, ts: np.ndarray) -> HalfSpaceGrid:
    n = ys.shape[1]
    box, nx = [], []
    for d in range(n):
        vals = np.unique(ys[:, d])
        box.append((float(vals[0]), float(vals[-1])))
        nx.append(len(vals))
    tvals = np.unique(ts)
    return HalfSpaceGrid(tuple(box), tuple(nx), float(tvals[0]), float(tvals[-1]), len(tvals))


def _unpack(fh, fmt: str) -> tuple:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError("not a GTNT file: truncated header")
    return struct.unpack(fmt, raw)


def _read_gtnt(path: Path) -> GridFunction:
    with open(path, "rb") as fh:
        if fh.read(4) != _GTNT_MAGIC:
            raise ValueError("not a GTNT file")
        version, n = _unpack(fh, "<II")
        if version != _GTNT_VERSION:
            raise ValueError(f"unsupported GTNT version {version}")
        if n not in (1, 2):                 # before n sizes the next read
            raise ValueError(f"GTNT dimension {n} not in {{1, 2}}")
        nx = _unpack(fh, f"<{n}I")
        (nt,) = _unpack(fh, "<I")
        box = tuple(_unpack(fh, "<dd") for _ in range(n))
        t_min, t_max = _unpack(fh, "<dd")
        grid = HalfSpaceGrid(box, nx, t_min, t_max, nt)
        payload = fh.read()
    if len(payload) != 8 * grid.n_spatial * nt:
        raise ValueError(f"GTNT payload has {len(payload)} bytes, "
                         f"expected {8 * grid.n_spatial * nt}")
    # read-only already, as GridFunction would make it: no copy
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.n_spatial, nt)
    return GridFunction(grid, values)
