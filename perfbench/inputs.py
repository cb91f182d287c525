"""Seeded input generators and file writers owned by the benchmark.

Nothing here imports gausstent: the inputs are built with numpy from the
grid definition alone and written in the program's own file formats
(GTNT binary, CSV grid functions, measure CSV rows, INI configs), so
changes to the program's I/O or test-family code cannot move set-up time
or the inputs themselves.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 1.0
BETA = 1.0


@dataclass(frozen=True)
class Grid:
    """The program's default 1-D half-space grid at a chosen resolution."""

    nx: int
    nt: int
    lo: float = -8.0
    hi: float = 8.0
    t_min: float = 1e-3
    t_max: float = 8.0

    @property
    def label(self) -> str:
        return f"{self.nx}x{self.nt}"

    @property
    def y(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.nx)

    @property
    def t(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.nt)

    def cone_caps(self) -> np.ndarray:
        """min(alpha t, beta m(y)) on every (y, t) node, m(y) = min(1, 1/|y|)."""
        ay = np.abs(self.y)
        m = np.minimum(1.0, 1.0 / np.maximum(ay, 1e-300))
        return np.minimum(ALPHA * self.t[None, :], BETA * m[:, None])


# -- seeded families --------------------------------------------------------
#
# The families fix their shape and draw only a position, an amplitude and
# (for tents) a radius from the seed, in narrow ranges: the work an op
# does then varies little from seed to seed, which keeps run-to-run
# spread low.


def bump(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """One bump, Gaussian in y (cut at 2.5 widths) and log-normal in t.

    Width 0.5 and t-peak 0.1 are fixed; the centre lies in [-1, 1], where
    the cutoff m is 1, and the amplitude in [0.5, 2].
    """
    y, t = grid.y, grid.t
    y0 = rng.uniform(-1.0, 1.0)
    amp = rng.uniform(0.5, 2.0)
    width, t0 = 0.5, 0.1
    vals = amp * np.exp(-((y - y0) / width) ** 2)[:, None] \
        * np.exp(-np.log(t / t0) ** 2)[None, :]
    vals[np.abs(y - y0) > 2.5 * width, :] = 0.0
    return vals


def tent_indicator(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """amp * 1[(y, t) in the tent over B(c, r)] for a seeded admissible ball."""
    c = rng.uniform(-2.0, 2.0)
    r = rng.uniform(0.3, 0.6)
    amp = rng.uniform(0.5, 2.0)
    depth = np.maximum(r - np.abs(grid.y - c), 0.0)
    return amp * (depth[:, None] >= grid.cone_caps())


def measure_rows(rng: np.random.Generator, n: int = 50) -> np.ndarray:
    """n rows (y, t, weight) with y in [-3, 3], t in [0.01, 2], weight > 0."""
    y = rng.uniform(-3.0, 3.0, n)
    t = np.exp(rng.uniform(np.log(0.01), np.log(2.0), n))
    w = rng.uniform(0.1, 1.0, n)
    return np.stack([y, t, w], axis=1)


# -- writers ----------------------------------------------------------------


def write_gtnt(path: Path, grid: Grid, values: np.ndarray) -> None:
    """GTNT v1: magic, version, n, nx, nt, box, t range, float64 payload."""
    with open(path, "wb") as fh:
        fh.write(b"GTNT")
        fh.write(struct.pack("<III", 1, 1, grid.nx))
        fh.write(struct.pack("<I", grid.nt))
        fh.write(struct.pack("<dddd", grid.lo, grid.hi, grid.t_min, grid.t_max))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def write_grid_csv(path: Path, grid: Grid, values: np.ndarray) -> None:
    """Header `y0,t,value`, one row per node; repr keeps every digit."""
    ys = np.repeat(grid.y, grid.nt).tolist()
    ts = np.tile(grid.t, grid.nx).tolist()
    vs = values.ravel().tolist()
    rows = [f"{a!r},{b!r},{c!r}" for a, b, c in zip(ys, ts, vs)]
    Path(path).write_text("y0,t,value\n" + "\n".join(rows) + "\n")


def write_measure_csv(path: Path, rows: np.ndarray) -> None:
    lines = [",".join(repr(v) for v in row) for row in rows.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_config(path: Path, grid: Grid, **params) -> None:
    """INI with the grid section and any [params] overrides."""
    text = f"[grid]\nnx = {grid.nx}\nnt = {grid.nt}\n"
    if params:
        text += "[params]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    Path(path).write_text(text)
