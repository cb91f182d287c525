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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball, ConeSpec, _ball_tent, _distance_rows, _gamma_balls, _gamma_ratio_sup,
    _pencil_caps,
)
from .grid import GridFunction, SpatialFunction, _csv_rows, halfspace_integral, lp_gamma_norm
from .functionals import (
    BallDictionary,
    ExponentPair,
    area_S,
    carleson_C,
    stopping_time,
    tent_norm,
)
from .whitney import _cone_average_over, _ratio

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
        if not g.contains_spatial(y):
            raise ValueError(f"measure point {y} outside the grid box")
        if not (g.t_min <= t <= g.t_max):
            raise ValueError(f"measure point t={t} outside the t-range")
        total += w * f.values[g.nearest_spatial_index(y), g.nearest_t_index(t)]
    return total


def carleson_norm(mu: DiscreteMeasure, alpha: float, beta: float,
                  delta: float, dict_: BallDictionary) -> dict:
    """max over dictionary balls of |mu|(tent of B) / gamma(B), with witness.

    The dictionary must consist of delta-admissible balls (Carleson-measure
    convention; contrast the unrestricted Carleson-functional supremum).
    values holds every ball's ratio, in dictionary order.
    """
    bad = int(np.count_nonzero(~dict_._admits(delta)))
    if bad:
        raise ValueError(f"{bad} dictionary balls not admissible at level {delta}")
    n = dict_.centers.shape[1]
    if any(len(y) != n for y, _, _ in mu.points):
        raise ValueError(f"measure points need {n} spatial coordinates")
    ys = np.array([y for y, _, _ in mu.points], dtype=float).reshape(len(mu.points), n)
    ts = np.array([t for _, t, _ in mu.points])
    absw = np.array([abs(w) for _, _, w in mu.points])
    caps = _pencil_caps(alpha, beta, ys, ts)[:, None]
    mass = np.array([absw[_ball_tent(ys, c, r, caps)[:, 0]].sum()
                     for c, r in zip(dict_.centers, dict_.radii)])
    with np.errstate(divide="raise", invalid="raise"):
        values = mass / _gamma_balls(dict_.centers, dict_.radii)
    best, witness = float(np.fmax.reduce(values, initial=0.0)), None
    if best > 0:
        k = int(np.flatnonzero(values == best)[0])
        witness = Ball(dict_.centers[k], float(dict_.radii[k]))
    return {"norm": best, "witness_ball": witness, "values": values}


def check_carleson_pairing(mu: DiscreteMeasure, f: GridFunction, alpha: float,
                           beta: float, delta: float,
                           dict_: BallDictionary) -> dict:
    """Measured constant in  sum |w||f| <= C ||mu||_C ||f||_{T^{1,inf}}."""
    abs_mu = DiscreteMeasure(tuple((y, t, abs(w)) for y, t, w in mu.points))
    lhs = float(measure_pairing(abs_mu, GridFunction(f.grid, np.abs(f.values))))
    cn = carleson_norm(mu, alpha, beta, delta, dict_)
    fnorm = tent_norm(f, ExponentPair(1.0, np.inf), alpha, beta,
                      continuous_intent=True)
    rhs = cn["norm"] * fnorm
    return {
        "lhs": lhs,
        "carleson_norm": cn["norm"],
        "tent_norm_1inf": fnorm,
        **_ratio(lhs, rhs, "C_emp"),
    }


def measured_K_beta(alpha: float, beta: float, dict_: BallDictionary) -> float:
    """Inflation constant: sup gamma(kappa B~)/gamma(B~) over dictionary
    balls, with B~ = B(c, alpha r ^ beta m(c)) and kappa = 2(beta+1)^2 + 1."""
    kappa = 2.0 * (beta + 1.0) ** 2 + 1.0
    r = _pencil_caps(alpha, beta, dict_.centers, dict_.radii)
    keep = r > 0
    return _gamma_ratio_sup(dict_.centers[keep], r[keep], kappa)


def stopping_density(h: SpatialFunction, alpha: float, beta: float,
                     dict_: BallDictionary) -> dict:
    """Per ball: gamma-fraction of B(c, alpha r ^ beta m(c)) where the
    stopping time reaches r_B (NaN where that ball holds no node).
    Grid-sum gammas keep the ratio exact."""
    g = h.grid
    gw = g.gamma_y
    r_adm = _pencil_caps(alpha, beta, dict_.centers, dict_.radii)
    lam = np.full(len(r_adm), np.nan)
    for k, (c, r, ra) in enumerate(zip(dict_.centers, dict_.radii, r_adm)):
        inside = _distance_rows(g.points, c) < ra
        den = gw[inside].sum()
        if den > 0.0:
            lam[k] = gw[inside & (h.values >= r)].sum() / den
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
    Cg = carleson_C(g, qp, spec.alpha, spec.beta, dict_)
    rhs = float(np.sum(Sf.values * Cg.values * f.grid.gamma_y))
    K = measured_K_beta(spec.alpha, spec.beta, dict_)
    M = 2.0 * K ** (1.0 / qp)
    h_ladder = np.geomspace(f.grid.t_min, f.grid.t_max, 16)
    h = stopping_time(g, qp, spec, M, h_ladder, Cg)
    dens = stopping_density(h, spec.alpha, spec.beta, dict_)
    return {
        "lhs": lhs,
        "rhs": rhs,
        **_ratio(lhs, rhs, "C_emp"),
        "K_beta": K,
        "M_const": M,
        "lambda_M_guarantee": 1.0 - 2.0 ** (-qp),
        "lambda_M_min": dens["lambda_M_min"],
    }


def check_duality_pq(f: GridFunction, g: GridFunction, p: float, q: float,
                     spec: ConeSpec, eps: float = 1e-6) -> dict:
    """The three-layer conjugate-exponent chain, each layer asserted.

    Layer 0 (identity, 1e-12): iint|fg| equals its cone-average
    rearrangement.  Layer 1: <= int S_q f S_{q'} g dgamma.  Layer 2: <=
    ||f||_{T^{p,q}} ||g||_{T^{p',q'}}.  eps is the relative slack on the
    inequality layers.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch")
    if not (1.0 < p < np.inf and 1.0 < q < np.inf):
        raise ValueError("need 1 < p, q < inf")
    pp, qp = p / (p - 1.0), q / (q - 1.0)
    absfg = GridFunction(f.grid, np.abs(f.values * g.values))
    lhs = halfspace_integral(absfg)
    rearranged = _cone_average_over(np.ones(f.grid.n_spatial), absfg, spec)
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
        "holder1_ok": bool(lhs <= mid + eps * scale),
        "holder2_ok": bool(mid <= right + eps * scale),
    }
