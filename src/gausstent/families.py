"""Seeded test families: bumps (on any grid), tent indicators and atoms (1-D).

`verify`, `embed` and the tests draw their inputs from these; a seed fixes
each function bit for bit.
"""

from __future__ import annotations

import numpy as np

from .atomic import Atom
from .functionals import cone_caps
from ._kernels import _ball_tent, _distance_rows
from .geometry import Ball, ConeSpec, cutoff_m, gamma_ball
from .grid import GridFunction, HalfSpaceGrid

__all__ = ["boundary_atom", "random_atom", "random_bump", "tent_indicator"]


def random_bump(grid: HalfSpaceGrid, rng: np.random.Generator) -> GridFunction:
    """Sum of a few compactly supported bumps, the stock test function; each
    bump is radial in y about its own center, 0 beyond 2.5 widths of it."""
    t = grid.t
    vals = np.zeros((grid.n_spatial, grid.nt))
    for _ in range(rng.integers(1, 4)):
        y0 = rng.uniform(-3.0, 3.0, size=grid.n)
        t0 = np.exp(rng.uniform(np.log(grid.t_min * 10), np.log(1.0)))
        amp = rng.uniform(0.3, 3.0)
        wy = rng.uniform(0.2, 1.0)
        d = _distance_rows(grid.points, y0)
        rows = np.flatnonzero(d <= 2.5 * wy)
        vals[rows] += amp * np.exp(-(d[rows, None] / wy) ** 2) \
            * np.exp(-np.log(t[None, :] / t0) ** 2)
    return GridFunction(grid, vals)


def tent_indicator(grid: HalfSpaceGrid, spec: ConeSpec, center: float,
                   radius: float) -> GridFunction:
    """1 on the tent over B(center, radius), 0 elsewhere."""
    tent = _ball_tent(grid.points, np.array([center]), radius, cone_caps(grid, spec))
    return GridFunction(grid, tent)


def random_atom(grid: HalfSpaceGrid, spec: ConeSpec, q: float,
                rng: np.random.Generator) -> Atom:
    """A delta-atom built to satisfy the definition exactly.

    The radius stays above ten grid cells and the normalization uses the
    larger of the exact and the grid-quadrature ball measure, so the atom
    bound survives quadrature error with margin.
    """
    c = float(rng.uniform(-2.5, 2.5))
    cap = spec.beta * cutoff_m(c)
    r = min(max(float(rng.uniform(0.4, 1.0)) * cap, 10.0 * grid.cell), cap)
    B = Ball((c,), r)
    shape = rng.uniform(0.2, 1.0, size=(grid.n_spatial, grid.nt))
    shape *= tent_indicator(grid, spec, c, r).values
    g_safe = max(gamma_ball(B), float(
        grid.gamma_y[_distance_rows(grid.points, B.center_array) < r].sum()))
    return Atom.crop(_normalized(grid, shape, g_safe, q), B, q)


def boundary_atom(grid: HalfSpaceGrid, spec: ConeSpec) -> Atom:
    """q=2 atom over the boundary-radius ball at the node nearest y = 2;
    its tent carries the full axis column, which the embedding mutation
    sentinel needs."""
    i = grid.nearest_spatial_index(2.0)
    c = float(grid.points[i, 0])
    B = Ball((c,), spec.beta * cutoff_m(c))
    tent = tent_indicator(grid, spec, c, B.radius).values
    return Atom.crop(_normalized(grid, tent, gamma_ball(B), 2.0), B, 2.0)


def _normalized(grid: HalfSpaceGrid, shape: np.ndarray, gB: float,
                q: float) -> GridFunction:
    """shape scaled to the atom bound: L^q norm gB^{-(1-1/q)}, sup 1/gB."""
    if not shape.any():
        raise ValueError("the tent over the atom's ball holds no grid cell, so the "
                         "atom is 0 and cannot be normalized; refine the grid")
    if q == np.inf:
        return GridFunction(grid, shape / shape.max() / gB)
    w = grid.gamma_y[:, None] * grid.wt[None, :]
    lq = np.sum(shape ** q * w) ** (1.0 / q)
    return GridFunction(grid, shape / lq * gB ** (-(1.0 - 1.0 / q)))
