"""Pairings, Carleson-measure norms, and the duality inequality checks.

The bilinear pairing is iint f g dgamma dt/t on the grid.  The central
chain, for conjugate exponents,

    iint |f g| dgamma dt/t  =  int_x ( iint_{cone(x)} |f g| / gamma(B(y, cap)) ) dgamma(x)
                            <= int S_q f(x) S_{q'} g(x) dgamma(x)
                            <= ||f||_{T^{p,q}} ||g||_{T^{p',q'}}

has an exact first layer on the grid (the averaging insertion is an
identity under the grid-sum denominator convention) and two Hoelder layers;
the checks below assert each layer separately.  The "<= up to a constant"
statements (pairing against a Carleson measure, the S*C route) are reported
as measured constants with stability left to the callers' test families.
Every check takes its apertures as one ConeSpec; the caps at measure points
and dictionary centers are ConeSpec.caps of cutoff_m of those points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    _ball_averages, _ball_tent, _ball_windows, _cone_average_over, _csv_rows,
    _gamma_ratio_sup, _ratio,
)
from .geometry import Ball, ConeSpec, cutoff_m, is_admissible
from .grid import GridFunction, SpatialFunction, halfspace_integral, lp_gamma_norm
from .functionals import (
    BallDictionary,
    ExponentPair,
    area_S,
    carleson_C,
    stopping_time,
    tent_norm,
)

__all__ = [
    "DiscreteMeasure",
    "carleson_norm",
    "check_carleson_pairing",
    "check_duality_1q",
    "check_duality_pq",
    "measure_pairing",
    "measured_K_beta",
    "pairing",
    "read_measure_csv",
    "stopping_density",
    "write_measure_csv",
]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite signed atomic measure on the upper half-space: (y, t, w) rows."""

    points: tuple          # ((y tuple, t, w), ...)

    def __post_init__(self):
        rows = []
        for y, t, w in self.points:
            y = tuple(float(c) for c in np.atleast_1d(y))
            if not t > 0:
                raise ValueError("measure points need t > 0")
            if not np.all(np.isfinite([*y, t, w])):
                raise ValueError(f"measure point {(y, t, w)} is not finite")
            rows.append((y, float(t), float(w)))
        object.__setattr__(self, "points", tuple(rows))


def write_measure_csv(mu: DiscreteMeasure, path) -> None:
    with open(path, "w") as fh:
        for y, t, w in mu.points:
            fh.write(",".join(repr(v) for v in (*y, t, w)) + "\n")


def read_measure_csv(path) -> DiscreteMeasure:
    data = _csv_rows(path, 0, "weight")
    n = data.shape[1] - 2
    return DiscreteMeasure(tuple((tuple(row[:n]), row[n], row[n + 1])
                                 for row in data))


def pairing(f: GridFunction, g: GridFunction) -> float:
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    return halfspace_integral(GridFunction(f.grid, f.values * g.values))


def measure_pairing(mu: DiscreteMeasure, f: GridFunction) -> float:
    """sum w_i f(y_i, t_i) with nearest-node evaluation of f."""
    g = f.grid
    total = 0.0
    for y, t, w in mu.points:
        if len(y) != g.n:
            raise ValueError(f"measure point {y} has {len(y)} spatial coordinates "
                             f"on a grid with {g.n}")
        if not g.contains_spatial(y):
            raise ValueError(f"measure point {y} outside the grid box")
        if not (g.t_min <= t <= g.t_max):
            raise ValueError(f"measure point t={t} outside the t-range")
        total += w * f.values[g.nearest_spatial_index(y), g.nearest_t_index(t)]
    return total


def carleson_norm(mu: DiscreteMeasure, spec: ConeSpec, delta: float,
                  dict_: BallDictionary) -> dict:
    """max over the delta-admissible balls of dict_ of |mu|(tent of B) / gamma(B).

    The supremum keeps the delta-admissible balls of the dictionary, in its
    order (Carleson-measure convention; contrast the unrestricted
    Carleson-functional supremum); a dictionary with none is a ValueError.
    values holds every kept ball's ratio, 0 for a ball whose tent holds no
    mass, and witness_ball the first kept ball at the max; mass over a
    gamma(B) that is 0 in floats raises FloatingPointError.
    """
    keep = is_admissible(dict_.centers, dict_.radii, delta)
    if not keep.any():
        raise ValueError(f"no dictionary ball admissible at level {delta}")
    centers, radii = dict_.centers[keep], dict_.radii[keep]
    n = centers.shape[1]
    if any(len(y) != n for y, _, _ in mu.points):
        raise ValueError(f"measure points need {n} spatial coordinates")
    ys = np.array([y for y, _, _ in mu.points], dtype=float).reshape(len(mu.points), n)
    ts = np.array([t for _, t, _ in mu.points])
    absw = np.array([abs(w) for _, _, w in mu.points])
    caps = spec.caps(cutoff_m(ys), ts)[:, None]
    mass = np.array([absw[_ball_tent(ys, c, r, caps)[:, 0]].sum()
                     for c, r in zip(centers, radii)])
    values = _ball_averages(mass, centers, radii)
    best, witness = float(np.fmax.reduce(values, initial=0.0)), None
    if best > 0:
        k = int(np.flatnonzero(values == best)[0])
        witness = Ball(centers[k], float(radii[k]))
    return {"norm": best, "witness_ball": witness, "values": values}


def check_carleson_pairing(mu: DiscreteMeasure, f: GridFunction, spec: ConeSpec,
                           norm: float) -> dict:
    """Measured constant in  sum |w||f| <= C ||mu||_C ||f||_{T^{1,inf}},
    with norm = ||mu||_C, carleson_norm(mu, spec, ...)["norm"]."""
    abs_mu = DiscreteMeasure(tuple((y, t, abs(w)) for y, t, w in mu.points))
    lhs = float(measure_pairing(abs_mu, GridFunction(f.grid, np.abs(f.values))))
    fnorm = tent_norm(f, ExponentPair(1.0, np.inf), spec, continuous_intent=True)
    rhs = norm * fnorm
    return {
        "lhs": lhs,
        "carleson_norm": norm,
        "tent_norm_1inf": fnorm,
        **_ratio(lhs, rhs, "C_emp"),
    }


def measured_K_beta(spec: ConeSpec, dict_: BallDictionary) -> float:
    """Inflation constant: sup gamma(kappa B~)/gamma(B~) over dictionary
    balls, with B~ = B(c, alpha r ^ beta m(c)) and kappa = 2(beta+1)^2 + 1;
    balls whose gamma(B~) is 0 in floats (past |c| of about 27) are left
    out."""
    kappa = 2.0 * (spec.beta + 1.0) ** 2 + 1.0
    r = spec.caps(cutoff_m(dict_.centers), dict_.radii)
    return _gamma_ratio_sup(dict_.centers, r, kappa)


def stopping_density(h: SpatialFunction, spec: ConeSpec,
                     dict_: BallDictionary) -> dict:
    """Per ball: gamma-fraction of B(c, alpha r ^ beta m(c)) where the
    stopping time reaches r_B (NaN where that ball holds no node).
    Grid-sum gammas keep the ratio exact."""
    g = h.grid
    win = _ball_windows(g, dict_.centers, spec.caps(cutoff_m(dict_.centers), dict_.radii))
    lam = np.full(len(dict_.radii), np.nan)
    for k, r in enumerate(dict_.radii):
        nodes = win.nodes(k)
        gw = g.gamma_y[nodes]
        den = gw.sum()
        if den > 0.0:
            lam[k] = gw[h.values[nodes] >= r].sum() / den
    seen = lam[~np.isnan(lam)]
    return {"lambda_M": lam,
            "lambda_M_min": min(1.0, float(seen.min())) if seen.size else np.nan}


def check_duality_1q(f: GridFunction, g: GridFunction, q: float,
                     spec: ConeSpec, dict_: BallDictionary) -> dict:
    """Measured constant in  iint |fg| <= C int S_q f * C_{q'} g dgamma,
    plus the stopping-time intermediates of the proof route."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    qp = q / (q - 1.0)
    lhs = pairing(GridFunction(f.grid, np.abs(f.values)),
                  GridFunction(g.grid, np.abs(g.values)))
    Sf = area_S(f, q, spec)
    Cg = carleson_C(g, qp, spec, dict_)
    rhs = float(np.sum(Sf.values * Cg.values * f.grid.gamma_y))
    K = measured_K_beta(spec, dict_)
    M = 2.0 * K ** (1.0 / qp)
    h_ladder = np.geomspace(f.grid.t_min, f.grid.t_max, 16)
    h = stopping_time(g, qp, spec, M, h_ladder, Cg)
    dens = stopping_density(h, spec, dict_)
    return {
        "lhs": lhs,
        "rhs": rhs,
        **_ratio(lhs, rhs, "C_emp"),
        "K_beta": K,
        "M_const": M,
        "lambda_M_guarantee": 1.0 - 2.0 ** (-qp),
        "lambda_M_min": dens["lambda_M_min"],
    }


_HOLDER_SLACK = 1e-6    # relative slack on the two inequality layers


def check_duality_pq(f: GridFunction, g: GridFunction, p: float, q: float,
                     spec: ConeSpec) -> dict:
    """The three-layer conjugate-exponent chain, each layer asserted.

    Layer 0 (identity, 1e-12): iint|fg| equals its cone-average
    rearrangement.  Layer 1: <= int S_q f S_{q'} g dgamma.  Layer 2: <=
    ||f||_{T^{p,q}} ||g||_{T^{p',q'}}.  The inequality layers allow the
    relative slack _HOLDER_SLACK.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError("need 1 < p, q < inf")
    pp, qp = p / (p - 1.0), q / (q - 1.0)
    absfg = f.values * g.values
    absfg = GridFunction(f.grid, np.abs(absfg, out=absfg))
    lhs = halfspace_integral(absfg)
    rearranged = _cone_average_over(np.ones(f.grid.n_spatial), absfg, spec)
    del absfg                   # as large as f: freed before the area functions
    Sf = area_S(f, q, spec)
    Sg = area_S(g, qp, spec)
    mid = float(np.sum(Sf.values * Sg.values * f.grid.gamma_y))
    right = lp_gamma_norm(Sf, p) * lp_gamma_norm(Sg, pp)
    scale = max(lhs, mid, right, 1e-300)
    return {
        "lhs": lhs,
        "rearranged": rearranged,
        "mid": mid,
        "right": right,
        "identity_ok": bool(abs(lhs - rearranged) <= 1e-12 * max(lhs, 1e-300)),
        "holder1_ok": bool(lhs <= mid + _HOLDER_SLACK * scale),
        "holder2_ok": bool(mid <= right + _HOLDER_SLACK * scale),
    }
