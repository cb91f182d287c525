"""Gaussian geometry primitives: cutoff scale, admissible balls, cones, tents.

All sets live over the upper half-space R^{n+1}_+ = {(y, t) : y in R^n, t > 0}
with the (unnormalized) Gaussian measure gamma(E) = int_E exp(-|y|^2) dy, so
gamma(R^n) = pi^{n/2}.  The cutoff function

    m(x) = min(1, 1/|x|)

sets the admissible scale at x: a ball B(c, r) is admissible at level beta
when r <= beta * m(c).  Cones use the strict inequality |y - x| < alpha*t ^
beta*m(y), tents the non-strict dist(y, O^c) >= alpha*t ^ beta*m(y), both
capped at y; boundary points belong to tents but not to cones.  _ball_tent
decides tent membership for grid cells, measure and sample points alike.

Only n in {1, 2} is supported: n = 1 has a closed form for gamma of an
interval via erfc, n = 2 reduces to a 1-D radial integral with a Bessel
factor.  The 1-D erfc is a port of the Cephes routine that
scipy.special.erfc evaluates, equal to it bit for bit, so n = 1 imports no
scipy; n = 2 imports scipy.integrate and scipy.special at its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "Ball",
    "ConeSpec",
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


@dataclass(frozen=True)
class ConeSpec:
    """Apertures (alpha, beta) of the pencil cone |y - x| < alpha*t ^ beta*m(y)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("cone apertures must be positive")


def is_admissible(B: Ball, beta: float) -> bool:
    """radius <= beta * m(center); the boundary radius is admissible."""
    return B.radius <= beta * cutoff_m(B.center)


def lebesgue_ball(B: Ball) -> float:
    """Lebesgue volume omega_n r^n (n = 1: 2r, n = 2: pi r^2)."""
    return _lebesgue(B.n, B.radius)


def _lebesgue(n: int, r):
    if n == 1:
        return 2.0 * r
    if n == 2:
        return float(np.pi) * r ** 2
    raise ValueError("only n in {1, 2} supported")


def gamma_ball(B: Ball) -> float:
    """Gaussian measure of a ball, density exp(-|y|^2), no normalization."""
    return float(_gamma_balls(B.center_array[None, :], np.array([B.radius]))[0])


def _gamma_balls(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """gamma(B(c, r)) for centers, shape (K, n), and radii, shape (K,).

    n = 1 uses the closed form (sqrt(pi)/2)(erfc(|c|-r) - erfc(|c|+r))
    elementwise, with the Cephes port _erfc; n = 2 integrates the radial
    profile 2*pi*s*exp(-(|c|-s)^2)*i0e(2 s |c|) adaptively to relative
    tolerance 1e-10, one ball at a time.  scipy is imported for n = 2 only,
    at first use, so that importing the package loads none of it.
    """
    n = centers.shape[1]
    if n == 1:
        c = np.abs(centers[:, 0])
        # erfc form keeps precision in the far tail, where erf(c +- r)
        # both round to 1
        return np.sqrt(np.pi) / 2.0 * (_erfc(c - radii) - _erfc(c + radii))
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


# Cephes ndtr.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): erfc = exp(-a^2) P(|a|)/Q(|a|) for 1 <= |a| < 8,
# exp(-a^2) R(|a|)/S(|a|) beyond, and 1 - erf(a) with erf = a T(a^2)/U(a^2)
# below 1.  Q, S and U have an implicit leading 1 (p1evl).
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef: tuple) -> float:
    # Horner's rule in Cephes' order: the same roundings as polevl/p1evl
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: tuple) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc1(a: float) -> float:
    """Cephes erfc of one float, statement by statement."""
    x = abs(a)
    if x < 1.0:
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)
    if x != x:
        return a
    z = -a * a
    if z < -_MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    z = math.exp(z)
    if x < 8.0:
        y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
    else:
        y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
    if a < 0.0:
        y = 2.0 - y
    if y == 0.0:
        return 2.0 if a < 0.0 else 0.0
    return y


def _erfc(a: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise, equal to the bit to
    scipy.special.erfc (Cephes), NaN, +-inf and signed zeros included.

    Python floats are IEEE doubles and math.exp is libm's exp, which is
    what makes the port exact: numpy's vectorized exp differs from libm in
    the last bit on some inputs.  The callers pass at most a few thousand
    elements per command, mostly one or two at a time, so one float at a
    time (about 1 us per element on a 2-core VM) beats a masked numpy
    version (about 100 us per call there).
    """
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(_erfc1, a.ravel().tolist()), float,
                       count=a.size).reshape(a.shape)


def _gamma_ratio_sup(centers: np.ndarray, radii: np.ndarray, factor: float) -> float:
    """sup of gamma(B(c, factor r)) / gamma(B(c, r)) over the balls, 1 when
    there are none; a gamma(B) that rounds to 0 raises FloatingPointError."""
    with np.errstate(divide="raise", invalid="raise"):
        ratio = _gamma_balls(centers, factor * radii) / _gamma_balls(centers, radii)
    return float(ratio.max(initial=1.0))


class AdmissibilityError(ValueError):
    """Raised when an operation requires an admissible ball and gets none."""


def gamma_ball_bounds_check(center, radius, beta):
    """Two-sided bracket exp(+-(2+beta)*beta) * exp(-|c|^2) * |B| for
    gamma(B) of the ball B(center, radius).

    One ball (a point, a radius and a level) gives a bool; centers with
    coordinates on the last axis, with radii and levels one per ball, give a
    bool array.  Valid for admissible balls only; a non-admissible ball is
    an error, not a False.
    """
    c = np.atleast_1d(np.asarray(center, dtype=float))
    r, beta = np.asarray(radius, dtype=float), np.asarray(beta, dtype=float)
    if not np.all((r > 0) & np.isfinite(r)):
        raise ValueError("ball radius must be positive and finite")
    cap = beta * cutoff_m(c)
    over = ~(r <= cap)
    if over.any():
        raise AdmissibilityError(f"ball radius {r[over].flat[0]} exceeds "
                                 f"beta*m(center) = {cap[over].flat[0]}")
    n = c.shape[-1]
    g = _gamma_balls(c.reshape(-1, n), r.reshape(-1)).reshape(r.shape)
    e = (2.0 + beta) * beta
    base = np.exp(-(c * c).sum(axis=-1)) * _lebesgue(n, r)
    ok = (np.exp(-e) * base <= g) & (g <= np.exp(e) * base)
    return bool(ok) if c.ndim == 1 else ok


def _pencil_caps(alpha: float, beta: float, ys: np.ndarray, ts) -> np.ndarray:
    """min(alpha*t, beta*m(y)), the cap of cones and tents, for points ys and
    heights ts broadcast against m(ys); beta = inf gives alpha*t."""
    return np.minimum(alpha * np.asarray(ts, dtype=float), beta * cutoff_m(ys))


def cone_contains(vertex, spec: ConeSpec, p: UpperPoint) -> bool:
    """|y - x| < alpha*t ^ beta*m(y), strict: the pencil cone at x."""
    x = _point(vertex)
    y = np.asarray(p.y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("vertex/point dimension mismatch")
    return bool(np.linalg.norm(y - x) < _pencil_caps(spec.alpha, spec.beta, y, p.t))


def _distance(d: np.ndarray, off2: np.ndarray | None = None) -> np.ndarray:
    """|d| on one axis; with the squared offset off2 along the leading axis,
    sqrt(off2 + d*d), the value np.linalg.norm gives for a 2-D difference."""
    return np.abs(d) if off2 is None else np.sqrt(off2 + d * d)


def _distance_rows(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """|y - c| for points y, shape (K, n), and centers c, shape (n,) or
    (M, n): one row of K distances per center."""
    d = points - centers[..., None, :]
    off2 = None if points.shape[1] == 1 else d[..., 0] * d[..., 0]
    return _distance(d[..., -1], off2)


def _ball_tent(points: np.ndarray, center: np.ndarray, radius: float,
               caps: np.ndarray) -> np.ndarray:
    """Which (y, t) lie in the tent over B(center, radius): dist(y, B^c) =
    max(r - |y - c|, 0) >= cap, with one row of caps per point y."""
    depth = np.maximum(radius - _distance_rows(points, center), 0.0)
    return depth[:, None] >= caps


def ball_tent_contains(B: Ball, alpha: float, beta: float, p: UpperPoint) -> bool:
    """dist(y, B^c) >= alpha*t ^ beta*m(y), with dist = max(r - |y - c|, 0)."""
    y = np.array([p.y])
    caps = _pencil_caps(alpha, beta, y, [[p.t]])
    return bool(_ball_tent(y, B.center_array, B.radius, caps)[0, 0])


def classical_tent_contains(B: Ball, alpha: float, p: UpperPoint) -> bool:
    """Classical tent: dist(y, B^c) >= alpha*t, no Gaussian cap."""
    return ball_tent_contains(B, alpha, np.inf, p)


def compare_tents(B: Ball, alpha: float, beta: float, ys, ts) -> dict:
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
    if beta < 1.0:
        warnings.append("beta < 1")
    if q_dist < np.sqrt(beta):
        warnings.append("|q_B| < sqrt(beta)")
    if not is_admissible(B, beta):
        warnings.append("ball not admissible at level beta")

    gau = _ball_tent(ys, c, B.radius, _pencil_caps(alpha, beta, ys, ts)[:, None])[:, 0]
    cla = _ball_tent(ys, c, B.radius, alpha * ts[:, None])[:, 0]
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
