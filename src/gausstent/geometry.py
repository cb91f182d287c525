"""Gaussian geometry primitives: cutoff scale, admissible balls, cones, tents.

All sets live over the upper half-space R^{n+1}_+ = {(y, t) : y in R^n, t > 0}
with the (unnormalized) Gaussian measure gamma(E) = int_E exp(-|y|^2) dy, so
gamma(R^n) = pi^{n/2}.  The cutoff function

    m(x) = min(1, 1/|x|)

sets the admissible scale at x: a ball B(c, r) is admissible at level beta
when r <= beta * m(c).  Cones use the strict inequality |y - x| < alpha*t ^
beta*m(y), tents the non-strict dist(y, O^c) >= alpha*t ^ beta*m(y), both
capped at y; boundary points belong to tents but not to cones.  Apertures
enter only as a ConeSpec, and ConeSpec.caps(m, t) is the one cap formula:
grid-node callers pass m from grid.m_y, off-grid callers cutoff_m of their
points.  Ball measures (erfc in 1-D, a Poisson sum in 2-D) and tent
membership come from one kernel each in _kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _ball_tent, _distance_rows, _gamma_balls

__all__ = [
    "Ball",
    "ConeSpec",
    "compare_tents",
    "comparison_lemma_check",
    "cutoff_m",
    "gamma_ball",
    "gamma_ball_bounds_check",
    "is_admissible",
]


def _point(x) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1:
        raise ValueError("a point must be a scalar or a flat coordinate vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def cutoff_m(x):
    """m(x) = min(1, 1/|x|) with |x| = sqrt(sum x_i^2); the admissible
    scale at x (equals 1 at x = 0).

    One point (a scalar or a coordinate vector) gives a float; an array of
    points, coordinates on the last axis, gives an array.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(p).all():
        raise ValueError("point coordinates must be finite")
    m = 1.0 / np.maximum(np.sqrt((p * p).sum(axis=-1)), 1.0)
    return float(m) if p.ndim == 1 else m


@dataclass(frozen=True)
class Ball:
    """Open Euclidean ball B(center, radius)."""

    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(_point(self.center)))
        if not (self.radius > 0 and np.isfinite(self.radius)):
            raise ValueError("ball radius must be positive and finite")

    @property
    def n(self) -> int:
        return len(self.center)

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)


@dataclass(frozen=True)
class ConeSpec:
    """Apertures (alpha, beta) of the pencil cone |y - x| < alpha*t ^ beta*m(y)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("cone apertures must be positive")

    def caps(self, m, t):
        """min(alpha*t, beta*m), the cap of cones and tents, for cutoffs m =
        m(y) broadcast against heights t; beta = inf gives alpha*t."""
        return np.minimum(self.alpha * t, self.beta * m)


def is_admissible(center, radius, level):
    """radius <= level * m(center); the boundary radius is admissible.

    One ball (a point and a radius) gives a bool; centers with coordinates
    on the last axis, with radii (and levels) one per ball, give a bool
    array.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    ok = np.asarray(radius, dtype=float) <= level * cutoff_m(c)
    return bool(ok) if c.ndim == 1 else ok


def gamma_ball(B: Ball) -> float:
    """Gaussian measure of a ball, density exp(-|y|^2), no normalization."""
    return float(_gamma_balls(B.center_array[None, :], np.array([B.radius]))[0])


def gamma_ball_bounds_check(center, radius, beta):
    """Two-sided bracket exp(+-(2+beta)*beta) * exp(-|c|^2) * |B| for
    gamma(B) of the ball B(center, radius).

    One ball (a point, a radius and a level) gives a bool; centers with
    coordinates on the last axis, with radii and levels one per ball, give a
    bool array.  Valid for admissible balls only; a non-admissible ball is
    a ValueError, not a False.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    r, beta = np.asarray(radius, dtype=float), np.asarray(beta, dtype=float)
    if not np.all((r > 0) & np.isfinite(r)):
        raise ValueError("ball radius must be positive and finite")
    over = ~np.asarray(is_admissible(c, r, beta))
    if over.any():
        cap = beta * cutoff_m(c)
        raise ValueError(f"ball radius {r[over].flat[0]} exceeds "
                         f"beta*m(center) = {cap[over].flat[0]}")
    n = c.shape[-1]
    g = _gamma_balls(c.reshape(-1, n), r.reshape(-1)).reshape(r.shape)
    e = (2.0 + beta) * beta
    # |B| = 2r or pi r^2: _gamma_balls has rejected any other n
    base = np.exp(-(c * c).sum(axis=-1)) * (2.0 * r if n == 1 else np.pi * r ** 2)
    ok = (np.exp(-e) * base <= g) & (g <= np.exp(e) * base)
    return bool(ok) if c.ndim == 1 else ok


def compare_tents(B: Ball, spec: ConeSpec, ys, ts) -> dict:
    """Compare Gaussian and classical tent membership over sample points
    (ys[i], ts[i]); ys has shape (M, n) and ts shape (M,).

    For admissible B with beta >= 1 and the closest point of the closed ball
    to the origin at distance >= sqrt(beta), the two tents coincide except
    possibly on the axis {c_B} x (0, inf) (and there only when the radius
    sits exactly at the admissibility boundary).  Precondition violations are
    flagged but the comparison still runs.
    """
    c = B.center_array
    ys = np.asarray(ys, dtype=float).reshape(-1, B.n)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if ys.shape[0] != ts.size:
        raise ValueError("one t per sample point required")
    q_dist = max(float(np.linalg.norm(c)) - B.radius, 0.0)
    warnings = []
    if spec.beta < 1.0:
        warnings.append("beta < 1")
    if q_dist < np.sqrt(spec.beta):
        warnings.append("|q_B| < sqrt(beta)")
    if not is_admissible(c, B.radius, spec.beta):
        warnings.append("ball not admissible at level beta")

    gau = _ball_tent(ys, c, B.radius, spec.caps(cutoff_m(ys), ts)[:, None])[:, 0]
    cla = _ball_tent(ys, c, B.radius, spec.alpha * ts[:, None])[:, 0]
    on_axis = _distance_rows(ys, c) <= 1e-12
    disagreements = [{"y": tuple(ys[i].tolist()), "t": float(ts[i]),
                      "gaussian": bool(gau[i]), "classical": bool(cla[i]),
                      "on_axis": bool(on_axis[i])}
                     for i in np.flatnonzero(gau != cla)]
    return {
        "n_samples": int(ts.size),
        "disagreements": disagreements,
        "n_off_axis": int(np.count_nonzero((gau != cla) & ~on_axis)),
        "warnings": warnings,
        "preconditions_ok": not warnings,
    }


def comparison_lemma_check(x, y, b):
    """Under |x - y| < b*m(y): both m(y) < (b+1)m(x) and m(x) < (b+1)m(y).

    One pair of points gives a bool; arrays of points, coordinates on the
    last axis, with b one value per pair, give a bool array.  A pair outside
    the hypothesis is an error, not a False.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    yp = np.atleast_1d(np.asarray(y, dtype=float))
    b = np.asarray(b, dtype=float)
    if not np.all(b > 0):
        raise ValueError("b must be positive")
    d = xp - yp
    my = cutoff_m(yp)
    if not np.all(np.sqrt((d * d).sum(axis=-1)) < b * my):
        raise ValueError("hypothesis |x - y| < b*m(y) violated")
    mx = cutoff_m(xp)
    ok = (my < (b + 1.0) * mx) & (mx < (b + 1.0) * my)
    return bool(ok) if xp.ndim == 1 else ok
