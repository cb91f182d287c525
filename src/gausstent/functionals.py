"""Area functions, Carleson functional, tent norms, stopping times.

The area function at aperture (alpha, beta) is

    S_q f(x) = ( sum over cone nodes (y,t) of
                 |f(y,t)|^q / gamma(B(y, alpha t ^ beta m(y))) * w(y,t) )^{1/q}

where the cone is |y - x| < alpha t ^ beta m(y) and w(y,t) are the
dgamma dt/t quadrature weights.  The apertures arrive as a ConeSpec; the
caps at grid nodes are ConeSpec.caps of the grid's cached m(y), grid.m_y,
and those at dictionary centers take cutoff_m of the centers once.  The
influence-ball denominators are evaluated with the same spatial quadrature
sum used everywhere else (not the closed-form erf value): with that
convention the Fubini rearrangement

    int S_q^q f dgamma  =  iint |f|^q dgamma dt/t

is an exact identity on the grid, which the T^{p,p} = L^p and duality checks
rely on.  At radii of a few cells or more the two gamma evaluations agree to
O(cell/r); at sub-cell radii (small t) the grid sum is the only convention
under which the identity can hold at all.

Every sum over a cone section or the tent of a ball runs in the window
layer of _kernels, which its module docstring describes.  Suprema over ball
families (the Carleson functional) range over a finite BallDictionary and
therefore return certified lower bounds.  A dictionary is two arrays,
centers (K, n) and radii (K,); its consumers hand them to the window layer
as they are and take gamma(B) of every ball from one call of the gamma
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _GAMMA_UNDERFLOW, _ball_averages, _ball_windows, _cone_area, _tent_sums
from .geometry import ConeSpec, cutoff_m
from .grid import GridFunction, HalfSpaceGrid, SpatialFunction, lp_gamma_norm

__all__ = [
    "BallDictionary",
    "ExponentPair",
    "area_S",
    "carleson_C",
    "cone_caps",
    "default_dictionary",
    "stopping_time",
    "tent_norm",
    "tent_norms",
]


@dataclass(frozen=True)
class ExponentPair:
    """(p, q) with the combinations of the tent-space scale.

    p = inf requires 1 < q < inf; q = inf requires the caller to flag
    continuous intent on the function at norm time.
    """

    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 1 and self.q >= 1):
            raise ValueError("exponents must be >= 1")
        if self.p == np.inf and not (1.0 < self.q < np.inf):
            raise ValueError("p = inf requires 1 < q < inf")


@dataclass(frozen=True, eq=False)
class BallDictionary:
    """Finite search family standing in for the uncountable ball suprema:
    the balls B(centers[k], radii[k]), centers of shape (K, n)."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float)
        radii = np.array(self.radii, dtype=float)
        if radii.size == 0:
            raise ValueError("empty ball dictionary")
        if centers.ndim != 2 or centers.shape[1] not in (1, 2):
            raise ValueError("dictionary centers need shape (K, n), n in {1, 2}")
        if radii.shape != (len(centers),):
            raise ValueError(f"{len(centers)} dictionary centers but radii of "
                             f"shape {radii.shape}")
        if not np.all(np.isfinite(centers)):
            raise ValueError("point coordinates must be finite")
        if not np.all((radii > 0) & np.isfinite(radii)):
            raise ValueError("ball radius must be positive and finite")
        centers.setflags(write=False)
        radii.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)


def default_dictionary(grid: HalfSpaceGrid, beta: float,
                       stride: int = 4, n_levels: int = 7) -> BallDictionary:
    """Centers at every stride-th node, radii {2^-k beta m(c)}, k = 0..6,
    center-major.

    k = 0 is the exact admissibility boundary radius beta*m(c).
    """
    idx = [np.arange(0, k, stride) for k in grid.nx]
    mesh = np.meshgrid(*idx, indexing="ij")
    centers = grid.points[np.ravel_multi_index(tuple(m.ravel() for m in mesh), grid.nx)]
    scales = np.array([2.0 ** (-k) for k in range(n_levels)])
    radii = (beta * cutoff_m(centers))[:, None] * scales
    return BallDictionary(np.repeat(centers, n_levels, axis=0), radii.ravel())


def cone_caps(grid: HalfSpaceGrid, spec: ConeSpec) -> np.ndarray:
    """alpha t ^ beta m(y) on all (y, t) nodes, shape (N, nt)."""
    return spec.caps(grid.m_y[:, None], grid.t)


def area_S(f: GridFunction, q: float, spec: ConeSpec) -> SpatialFunction:
    """The q-area function, q in [1, inf]; evaluated at every grid vertex.
    At q = inf it is S_inf, the pointwise sup of |f| over the cone nodes."""
    ys, js = np.nonzero(f.values)
    S, = _cone_area(f.grid, (spec,), ys, js, f.values[ys, js], float(q))
    return SpatialFunction(f.grid, S)


def carleson_C(f: GridFunction, q: float, spec: ConeSpec,
               dict_: BallDictionary) -> SpatialFunction:
    """C_q f(x): max tent q-average over dictionary balls admitting x.

    A ball admits x when x lies in B(c_B, alpha r_B ^ beta m(c_B)); the
    dictionary is taken literally (no admissibility filter here; contrast
    the Carleson-measure norm, which restricts to admissible balls).  A
    ball whose tent holds no nonzero value reads 0; mass over a gamma(B)
    that is 0 in floats, or a nonzero value where the weight gamma_y is 0
    in the tent of a ball with no mass, raises FloatingPointError.
    """
    q = float(q)
    if not (1.0 < q < np.inf):
        raise ValueError("q must lie in (1, inf)")
    g = f.grid
    weighted = np.abs(f.values)
    weighted **= q
    weighted *= g.gamma_y[:, None]
    weighted *= g.wt[None, :]
    centers, radii = dict_.centers, dict_.radii
    caps = cone_caps(g, spec)
    mass = _tent_sums(g, centers, radii, weighted, caps)
    # a value where gamma_y is 0 adds no mass: a ball with no mass that
    # holds one has no average, not the average 0
    hidden = (f.values != 0) & (g.gamma_y == 0)[:, None]
    empty = mass == 0
    if hidden.any() and _tent_sums(g, centers[empty], radii[empty], hidden, caps).any():
        raise FloatingPointError(_GAMMA_UNDERFLOW)
    # one scalar power per ball: numpy's array power can differ in the last ulp
    val = [a ** (1.0 / q) for a in _ball_averages(mass, centers, radii)]
    admit = _ball_windows(g, centers, spec.caps(cutoff_m(centers), radii))
    return SpatialFunction(g, admit.scatter(np.array(val), np.maximum))


def tent_norm(f: GridFunction, pq: ExponentPair, spec: ConeSpec,
              dict_: BallDictionary | None = None,
              continuous_intent: bool = False) -> float:
    """The T^{p,q} norm: ||S_q f||_{L^p(gamma)}, or ||C_q f||_inf at p = inf.

    p = inf takes C_q over dict_ and q = inf needs continuous_intent; any
    other call is tent_norms of the one spec, which raises without them."""
    if pq.p == np.inf and dict_ is not None:
        return lp_gamma_norm(carleson_C(f, pq.q, spec, dict_), np.inf)
    if pq.q == np.inf and continuous_intent:
        return lp_gamma_norm(area_S(f, np.inf, spec), pq.p)
    return tent_norms(f, pq, (spec,))[0]


def tent_norms(f: GridFunction, pq: ExponentPair, specs) -> list:
    """||S_q f||_{L^p(gamma)} at each aperture of specs, finite p and q, from
    one sweep over the support of f (see _kernels._cone_area)."""
    if pq.p == np.inf:
        raise ValueError("p = inf needs a ball dictionary for C_q")
    if pq.q == np.inf:
        raise ValueError("q = inf requires continuous-intent values")
    ys, js = np.nonzero(f.values)
    areas = _cone_area(f.grid, tuple(specs), ys, js, f.values[ys, js], float(pq.q))
    return [lp_gamma_norm(SpatialFunction(f.grid, S), pq.p) for S in areas]


def stopping_time(g: GridFunction, qprime: float, spec: ConeSpec, M_const: float,
                  h_ladder, cq: SpatialFunction) -> SpatialFunction:
    """h(x): the largest ladder height with S_{q',h} g(x) <= M * C_{q'} g(x),
    S_{q',h} the area function over the truncated cone {t < h}.

    cq must be the precomputed Carleson functional of g at exponent q'.
    Sentinels: 0.0 when no height qualifies, +inf when all do.
    """
    h_ladder = sorted(float(h) for h in h_ladder)
    if not h_ladder:
        raise ValueError("empty stopping-time ladder")
    bound = M_const * cq.values
    grid = g.grid
    out = np.zeros(grid.n_spatial)
    all_pass = np.ones(grid.n_spatial, dtype=bool)
    for h in h_ladder:
        cut = GridFunction(grid, np.where(grid.t[None, :] < h, g.values, 0.0))
        ok = area_S(cut, qprime, spec).values <= bound
        out = np.where(ok, h, out)
        all_pass &= ok
    out[all_pass] = np.inf
    return SpatialFunction(grid, out)
