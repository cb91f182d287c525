"""Fixed test functions and atoms shared by the test modules; pinned reports
and sha256 values hold their floats, so none of them may move."""

import numpy as np

from gausstent.atomic import Atom
from gausstent.functionals import cone_caps
from gausstent.geometry import Ball, cutoff_m, gamma_ball
from gausstent.grid import GridFunction


def bump(grid, center=0.5):
    """exp(-((y - center)/0.4)^2) exp(-log(t/0.1)^2), 0 past |y - center| > 1; 1-D."""
    y, t = grid.points[:, 0], grid.t
    vals = np.exp(-((y[:, None] - center) / 0.4) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - center) > 1.0, :] = 0.0
    return GridFunction(grid, vals)


def bump_2d(grid):
    """A radial bump about (0.5, -1.0), 0 past radius 3; 2-D."""
    r2 = np.sum((grid.points - np.array([0.5, -1.0])) ** 2, axis=1)
    vals = np.exp(-r2 / 2.0)[:, None] * np.exp(-np.log(grid.t[None, :] / 0.5) ** 2)
    vals[r2 > 9.0, :] = 0.0
    return GridFunction(grid, vals)


def make_atom(grid, spec, q, center=0.5, frac=0.8):
    """The tent over B(center, frac beta m(center)), scaled to the q-atom bound; 1-D."""
    r = frac * spec.beta * cutoff_m(center)
    B = Ball((center,), r)
    depth = np.maximum(r - np.abs(grid.points[:, 0] - center), 0.0)
    tent = (depth[:, None] >= cone_caps(grid, spec)).astype(float)
    gB = gamma_ball(B)
    if q == np.inf:
        vals = tent / gB
    else:
        w = grid.gamma_y[:, None] * grid.wt[None, :]
        lq = np.sum(tent ** q * w) ** (1.0 / q)
        vals = tent / lq * gB ** (-(1.0 - 1.0 / q))
    return Atom.crop(GridFunction(grid, vals), B, q)
