"""Gaussian geometry primitives: cutoff scale, admissible balls, cones, tents.

All sets live over the upper half-space R^{n+1}_+ = {(y, t) : y in R^n, t > 0}
with the (unnormalized) Gaussian measure gamma(E) = int_E exp(-|y|^2) dy, so
gamma(R^n) = pi^{n/2}.  The cutoff function

    m(x) = min(1, 1/|x|)

sets the admissible scale at x: a ball B(c, r) is admissible at level beta
when r <= beta * m(c).  Cones use the strict inequality |y - x| < alpha*t ^
beta*m(.), tents the non-strict dist(y, O^c) >= alpha*t ^ beta*m(y); boundary
points therefore belong to tents but not to cones.

Only n in {1, 2} is supported: n = 1 has a closed form for gamma of an
interval via erfc, n = 2 reduces to a 1-D radial integral with a Bessel
factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "Ball",
    "ConeSpec",
    "ConeVariant",
    "UpperPoint",
    "ball_tent_contains",
    "classical_tent_contains",
    "compare_tents",
    "comparison_lemma_check",
    "cone_contains",
    "cutoff_m",
    "gamma_ball",
    "gamma_ball_bounds_check",
    "is_admissible",
    "lebesgue_ball",
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

    def scaled(self, factor: float) -> "Ball":
        return Ball(self.center, factor * self.radius)


@dataclass(frozen=True)
class UpperPoint:
    """A point (y, t) of the upper half-space, t > 0."""

    y: tuple
    t: float

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(_point(self.y)))
        if not (self.t > 0 and np.isfinite(self.t)):
            raise ValueError("t must be positive and finite")


class ConeVariant(Enum):
    PENCIL = "pencil"  # cap beta*m(y), pencil-shaped near infinity
    FIXED = "fixed"    # cap beta*m(x), fixed by the vertex


@dataclass(frozen=True)
class ConeSpec:
    alpha: float
    beta: float
    variant: ConeVariant = ConeVariant.PENCIL

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("cone apertures must be positive")


def is_admissible(B: Ball, beta: float) -> bool:
    """radius <= beta * m(center); the boundary radius is admissible."""
    return B.radius <= beta * cutoff_m(B.center)


def lebesgue_ball(B: Ball) -> float:
    """Lebesgue volume omega_n r^n (n = 1: 2r, n = 2: pi r^2)."""
    if B.n == 1:
        return 2.0 * B.radius
    if B.n == 2:
        return float(np.pi) * B.radius ** 2
    raise ValueError("only n in {1, 2} supported")


def gamma_ball(B: Ball) -> float:
    """Gaussian measure of a ball, density exp(-|y|^2), no normalization."""
    return float(_gamma_balls(B.center_array[None, :], np.array([B.radius]))[0])


def _gamma_balls(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """gamma(B(c, r)) for centers, shape (K, n), and radii, shape (K,).

    n = 1 uses the closed form (sqrt(pi)/2)(erfc(|c|-r) - erfc(|c|+r))
    elementwise; n = 2 integrates the radial profile
    2*pi*s*exp(-(|c|-s)^2)*i0e(2 s |c|) adaptively to relative tolerance
    1e-10, one ball at a time.  scipy is imported here, at first use, so
    that importing the package loads none of it.
    """
    n = centers.shape[1]
    if n == 1:
        from scipy.special import erfc

        c = np.abs(centers[:, 0])
        # erfc form keeps precision in the far tail, where erf(c +- r)
        # both round to 1
        return np.sqrt(np.pi) / 2.0 * (erfc(c - radii) - erfc(c + radii))
    if n == 2:
        from scipy import integrate
        from scipy.special import i0e

        def radial(s, a):
            # exp(-|c|^2 - s^2) * I0(2 a s) == exp(-(a-s)^2) * i0e(2 a s)
            return 2.0 * np.pi * s * np.exp(-((a - s) ** 2)) * i0e(2.0 * a * s)

        return np.array([integrate.quad(radial, 0.0, r, args=(float(np.linalg.norm(c)),),
                                        epsabs=0.0, epsrel=1e-10, limit=200)[0]
                         for c, r in zip(centers, radii)])
    raise ValueError("only n in {1, 2} supported")


def _gamma_ratio_sup(centers: np.ndarray, radii: np.ndarray, factor: float) -> float:
    """sup of gamma(B(c, factor r)) / gamma(B(c, r)) over the balls, 1 when
    there are none; a gamma(B) that rounds to 0 raises FloatingPointError."""
    with np.errstate(divide="raise", invalid="raise"):
        ratio = _gamma_balls(centers, factor * radii) / _gamma_balls(centers, radii)
    return float(ratio.max(initial=1.0))


class AdmissibilityError(ValueError):
    """Raised when an operation requires an admissible ball and gets none."""


def gamma_ball_bounds_check(B: Ball, beta: float) -> bool:
    """Two-sided bracket exp(+-(2+beta)*beta) * exp(-|c|^2) * |B| for gamma(B).

    Valid for admissible balls only; non-admissible input is an error, not a
    False.
    """
    if not is_admissible(B, beta):
        raise AdmissibilityError(
            f"ball radius {B.radius} exceeds beta*m(center) = {beta * cutoff_m(B.center)}"
        )
    e = (2.0 + beta) * beta
    base = np.exp(-float(np.dot(B.center, B.center))) * lebesgue_ball(B)
    g = gamma_ball(B)
    return bool(np.exp(-e) * base <= g <= np.exp(e) * base)


def _cap(spec: ConeSpec, vertex: np.ndarray, y: np.ndarray, t: float) -> float:
    ref = y if spec.variant is ConeVariant.PENCIL else vertex
    return min(spec.alpha * t, spec.beta * cutoff_m(ref))


def cone_contains(vertex, spec: ConeSpec, p: UpperPoint) -> bool:
    """|y - x| < alpha*t ^ beta*m(y)  (pencil) or beta*m(x) (fixed); strict."""
    x = _point(vertex)
    y = np.asarray(p.y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("vertex/point dimension mismatch")
    return float(np.linalg.norm(y - x)) < _cap(spec, x, y, p.t)


def ball_tent_contains(B: Ball, alpha: float, beta: float, p: UpperPoint) -> bool:
    """dist(y, B^c) >= alpha*t ^ beta*m(y), with dist = max(r - |y - c|, 0)."""
    y = np.asarray(p.y, dtype=float)
    d = max(B.radius - float(np.linalg.norm(y - B.center_array)), 0.0)
    return d >= min(alpha * p.t, beta * cutoff_m(y))


def classical_tent_contains(B: Ball, alpha: float, p: UpperPoint) -> bool:
    """Classical tent: dist(y, B^c) >= alpha*t, no Gaussian cap."""
    y = np.asarray(p.y, dtype=float)
    d = max(B.radius - float(np.linalg.norm(y - B.center_array)), 0.0)
    return d >= alpha * p.t


def compare_tents(B: Ball, alpha: float, beta: float,
                  samples: Sequence[UpperPoint]) -> dict:
    """Compare Gaussian and classical tent membership over sample points.

    For admissible B with beta >= 1 and the closest point of the closed ball
    to the origin at distance >= sqrt(beta), the two tents coincide except
    possibly on the axis {c_B} x (0, inf) (and there only when the radius
    sits exactly at the admissibility boundary).  Precondition violations are
    flagged but the comparison still runs.
    """
    c = B.center_array
    q_dist = max(float(np.linalg.norm(c)) - B.radius, 0.0)
    warnings = []
    if beta < 1.0:
        warnings.append("beta < 1")
    if q_dist < np.sqrt(beta):
        warnings.append("|q_B| < sqrt(beta)")
    if not is_admissible(B, beta):
        warnings.append("ball not admissible at level beta")

    disagreements = []
    off_axis = 0
    for p in samples:
        g = ball_tent_contains(B, alpha, beta, p)
        cl = classical_tent_contains(B, alpha, p)
        if g != cl:
            on_axis = float(np.linalg.norm(np.asarray(p.y) - c)) <= 1e-12
            disagreements.append({"y": p.y, "t": p.t, "gaussian": g,
                                  "classical": cl, "on_axis": on_axis})
            if not on_axis:
                off_axis += 1
    return {
        "n_samples": len(samples),
        "disagreements": disagreements,
        "n_off_axis": off_axis,
        "warnings": warnings,
        "preconditions_ok": not warnings,
    }


def comparison_lemma_check(x, y, b: float) -> bool:
    """Under |x - y| < b*m(y): both m(y) < (b+1)m(x) and m(x) < (b+1)m(y)."""
    xp, yp = _point(x), _point(y)
    if b <= 0:
        raise ValueError("b must be positive")
    if float(np.linalg.norm(xp - yp)) >= b * cutoff_m(yp):
        raise ValueError("hypothesis |x - y| < b*m(y) violated")
    mx, my = cutoff_m(xp), cutoff_m(yp)
    return my < (b + 1.0) * mx and mx < (b + 1.0) * my
