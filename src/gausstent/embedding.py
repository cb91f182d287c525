"""The local convolution operator and the H^1-atom checks, n = 1.

The operator maps a half-space function to a spatial function by

    u(x) = e^{x^2} sum_{t_j} sum_{y_i : t_j < m(y_i)}
               f(y_i, t_j) phi((x - y_i)/t_j)/t_j e^{-y_i^2} w_y w_{log t}

with a fixed odd mother function phi supported in [-1, 1].  The local
region {t < m(y)} forces t < 1, so the t-sum stops there.  The mean-zero
property of phi is what makes gamma-averages of u vanish; to keep that
property exact under quadrature, the discrete kernel column for each
(y, t) node is recentered within its own support (a constant is subtracted
over {|x - y| < t} so the weighted column sums to zero exactly).  The
correction is O(cell/t) relative and vanishes under refinement.

Each kernel row is evaluated only on its support band, the nodes within t
of y (one node wider on each side), so phi, the support test and the
recentering cost O(rows * t/cell) per t-level instead of O(rows * N).  The
two row sums and the product with the coefficients still run over full-width
rows: numpy's pairwise sum and the BLAS gemv group their terms by absolute
column, and only that order gives the floats of the dense loop, which the
tests check to the bit.

e^{x^2} stays below e^{64} on the default box, comfortably inside double
range; no log-space evaluation is needed for any supported box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, SpatialFunction, lp_gamma_norm
from .geometry import _distance_rows, gamma_ball

__all__ = ["MotherFunction", "check_h1_atom", "default_phi", "pi_phi"]


@dataclass(frozen=True)
class MotherFunction:
    """Odd smooth bump c*x*exp(-1/(1-x^2)) on (-1, 1), scaled to peak 1."""

    scale: float
    bound: float        # M with |phi| <= M and |phi'| <= M

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        xi = x[inside]
        with np.errstate(over="ignore"):
            out[inside] = self.scale * xi * np.exp(-1.0 / (1.0 - xi * xi))
        return out


# The peak of x*exp(-1/(1-x^2)) on (0, 1) as scipy's bounded minimize_scalar
# on (1e-6, 1 - 1e-6) finds it, which tests/test_embedding.py re-derives.  The
# closed-form peak differs by 3.7e-12 relative and would move every report.
_PHI_PEAK = 0.13205928185506993


def default_phi() -> MotherFunction:
    phi = MotherFunction(scale=1.0 / _PHI_PEAK, bound=1.0)
    xs = np.linspace(-0.9999, 0.9999, 20001)
    deriv = np.max(np.abs(np.gradient(phi(xs), xs)))
    return MotherFunction(scale=phi.scale, bound=float(max(1.0, deriv)))


def pi_phi(f: GridFunction, phi: MotherFunction, local: bool = True) -> SpatialFunction:
    """Apply the operator; local=False drops the {t < m(y)} truncation.

    The untruncated variant exists only as a deliberate-bug sentinel for the
    support check; all mathematical guarantees assume local=True.
    """
    g = f.grid
    if g.n != 1:
        raise ValueError("the embedding operator is implemented for n = 1 only")
    y = g.points[:, 0]
    x = y  # output vertices are the spatial nodes, ascending
    n = x.size
    gw = g.gamma_y
    acc = np.zeros(n)
    for j, tj in enumerate(g.t):
        rows = np.nonzero(f.values[:, j])[0]
        if local:
            rows = rows[tj < g.m_y[rows]]
        if rows.size == 0:
            continue
        # each row's band: the columns within tj of y, one node wider on
        # each side than searchsorted says, clipped into one common width
        lo = np.searchsorted(x, y[rows] - tj, "left") - 1
        hi = np.searchsorted(x, y[rows] + tj, "right") + 1
        width = min(int((hi - lo).max()), n)
        start = np.clip(lo, 0, n - width)
        cols = start[:, None] + np.arange(width)                # (rows, width)
        flat = (np.arange(rows.size) * n)[:, None] + cols
        d = x[cols] - y[rows, None]
        kernel = phi(d / tj) / tj
        support = np.abs(d) < tj
        # full-width rows keep the term order of the row sums and the gemv,
        # and with it the floats of the dense loop (module docstring)
        buf = np.zeros((rows.size, n))
        buf.flat[flat] = support * g.wy[cols]
        wtot = buf.sum(axis=1)
        buf.flat[flat] = kernel * g.wy[cols]
        wsum = buf.sum(axis=1)
        # recenter each row inside its support so the weighted row sum is 0
        buf.flat[flat] = kernel - support * (wsum / wtot)[:, None]
        coeff = f.values[rows, j] * gw[rows] * g.wt[j]
        acc += coeff @ buf
    return SpatialFunction(g, acc * np.exp(x * x))


def check_h1_atom(atom, phi: MotherFunction, local: bool = True) -> dict:
    """Three checks on u = pi_phi(atom): support inside the doubled ball,
    vanishing gamma-average, and the L^2(gamma) bound constant."""
    f = atom.expand()
    g = f.grid
    u = pi_phi(f, phi, local=local)
    cell = g.cell
    dist_c = _distance_rows(g.points, atom.ball.center_array)
    outside = dist_c >= 2.0 * atom.ball.radius + cell
    support_ok = bool(np.all(u.values[outside] == 0.0))

    avg = float(np.sum(u.values * g.gamma_y))
    l1 = lp_gamma_norm(u, 1)
    if l1 > 0:
        average_ok = bool(abs(avg) <= 1e-8 * l1)
    else:
        average_ok = bool(abs(avg) <= 1e-12)

    l2 = lp_gamma_norm(u, 2)
    c_emp = l2 * np.sqrt(gamma_ball(atom.ball))
    return {
        "support_ok": support_ok,
        "average_ok": average_ok,
        "gamma_average": avg,
        "l1_norm": l1,
        "l2_norm": l2,
        "l2_constant": c_emp,
        "all_ok": support_ok and average_ok and np.isfinite(c_emp),
    }
