"""Area functions, Carleson functional, maximal functions, tent norms.

The area function at aperture (alpha, beta) is

    S_q f(x) = ( sum over cone nodes (y,t) of
                 |f(y,t)|^q / gamma(B(y, alpha t ^ beta m(y))) * w(y,t) )^{1/q}

where the cone is |y - x| < alpha t ^ beta m(y) and w(y,t) are the
dgamma dt/t quadrature weights.  The influence-ball denominators are
evaluated with the same spatial quadrature sum used everywhere else (not the
closed-form erf value): with that convention the Fubini rearrangement

    int S_q^q f dgamma  =  iint |f|^q dgamma dt/t

is an exact identity on the grid, which the T^{p,p} = L^p and duality checks
rely on.  At radii of a few cells or more the two gamma evaluations agree to
O(cell/r); at sub-cell radii (small t) the grid sum is the only convention
under which the identity can hold at all.

Every ball on the grid is a window {k : |x_k - c| < r} around a center
coordinate c, node or not: cone sections, influence balls, the centered
ladders and the dictionary balls of C_q, the non-centered maximal function
and the containing-ball density points.  One private layer (_Windows)
evaluates them all: gather sums node values over each window, scatter gives
each node the sum or max of the weights of the windows that hold it, and
tent_sums sums over the tent T(B) of each window's ball.  In 1-D a window
is the index range [lo, hi), found with the same float predicate as a dense
distance mask so the node sets are identical, and its sums run over the
O(log N) canonical nodes of a segment tree.  On a 2-D grid a window is
one such range per grid row its disk meets, over the same tree.  A call
costs O(ranges log N) with no cache, and every sum adds nonnegative terms
only: a prefix-sum difference would cancel away the e^{-|y|^2} tails.
Which (y, t) lie in T(B) is decided in one place, geometry._ball_tent.
The centered ladder B(x, 2^-k level m(x)), k = 0..6, is built in one place,
_centered_ladder, for any number of node columns at once.

Suprema over ball families (Carleson functional, maximal functions) range
over a finite BallDictionary and therefore return certified lower bounds.
A dictionary is two arrays, centers (K, n) and radii (K,); its consumers
hand them to the window layer as they are and take gamma(B) of every ball
from one call of the geometry module's gamma kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConeSpec, _ball_tent, _distance, _gamma_balls, _pencil_caps, cutoff_m
from .grid import GridFunction, HalfSpaceGrid, SpatialFunction, lp_gamma_norm

__all__ = [
    "BallDictionary",
    "ExponentPair",
    "area_S",
    "area_S_sup",
    "area_S_truncated",
    "carleson_C",
    "cone_caps",
    "default_dictionary",
    "maximal_centered",
    "maximal_noncentered",
    "stopping_time",
    "tent_norm",
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

    def _admits(self, level: float) -> np.ndarray:
        """Which balls are admissible at level: r <= level * m(c)."""
        return self.radii <= level * cutoff_m(self.centers)

    def admissible(self, level: float) -> "BallDictionary":
        keep = self._admits(level)
        if not keep.any():
            raise ValueError(f"no dictionary ball admissible at level {level}")
        return BallDictionary(self.centers[keep], self.radii[keep])


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
    return _pencil_caps(spec.alpha, spec.beta, grid.points[:, None, :], grid.t)


# -- window layer (see the module docstring) ----------------------------------


def _tree_levels(n: int) -> list:
    """Internal-node ranges [lo, hi) of the bottom-up segment tree over n
    leaves (leaves at n..2n-1), children's ranges first."""
    levels = []
    hi = n
    while hi > 1:
        lo = (hi + 1) // 2
        levels.append((lo, hi))
        hi = lo
    return levels


def _canonical_nodes(n: int, lo: np.ndarray, hi: np.ndarray):
    """Yield (windows, nodes): the canonical tree nodes of every [lo, hi),
    one half-level at a time; each yield holds a window at most once."""
    left, right = lo + n, hi + n
    idx = np.nonzero(left < right)[0]
    left, right = left[idx], right[idx]
    while idx.size:
        take = (left & 1).astype(bool)
        yield idx[take], left[take]
        left += take
        take = (right & 1).astype(bool)
        right -= take
        yield idx[take], right[take]
        left //= 2
        right //= 2
        open_ = left < right
        idx, left, right = idx[open_], left[open_], right[open_]


def _window_end(axis: np.ndarray, xc: np.ndarray, radii: np.ndarray,
                off2: np.ndarray | None = None) -> np.ndarray:
    """Exclusive end of {k : axis[k] >= x_c, _distance(axis[k] - x_c, off2) < r}.

    A searchsorted guess at the reach sqrt(r^2 - off2), never left of the
    nodes >= x_c, is corrected against the predicate itself, which is
    monotone over those nodes; each pass re-examines only moved ends."""
    last = len(axis) - 1
    reach = radii if off2 is None else np.sqrt(np.maximum(radii * radii - off2, 0.0))
    hi = np.searchsorted(axis, xc + reach, side="left")
    todo = slice(None)
    while True:
        h, x, r = hi[todo], xc[todo], radii[todo]
        o2 = None if off2 is None else off2[todo]
        grow = (h <= last) & (_distance(axis[np.minimum(h, last)] - x, o2) < r)
        prev = axis[np.maximum(h - 1, 0)]
        shrink = (h > 0) & (prev >= x) & ~(_distance(prev - x, o2) < r)
        hi[todo] = h + grow - shrink
        moved = np.flatnonzero(grow | shrink)
        if moved.size == 0:
            return hi
        todo = np.arange(len(hi))[todo][moved]


def _window_bounds(axis: np.ndarray, xc: np.ndarray, radii: np.ndarray,
                   off2: np.ndarray | None = None):
    """[lo, hi) with range(lo, hi) = {k : _distance(axis[k] - x_c, off2) < r}.

    The nodes left of x_c are the end on the mirrored axis -axis[::-1]
    around -x_c, whose distances are bit-identical, so both bounds
    reproduce the dense node sets for any center, node or not.
    """
    n = len(axis)
    hi = _window_end(axis, xc, radii, off2)
    lo = n - _window_end(-axis[::-1], -xc, radii, off2)
    return lo, hi


def _expand(lo: np.ndarray, hi: np.ndarray):
    """The concatenated ranges range(lo[i], hi[i]) (empty where hi <= lo),
    and for each element the index i of its range."""
    counts = np.maximum(hi - lo, 0)
    at = np.repeat(np.arange(len(lo)), counts)
    first = np.cumsum(counts) - counts
    return lo[at] + np.arange(at.size) - first[at], at


class _Windows:
    """The windows {k : |x_k - c| < r} of (center, radius) pairs, with
    gather, scatter and tent sums; centers are coordinates, shape (M, n).

    A window is one index range per grid row (the nodes that share the
    leading coordinate; in 1-D the whole axis), owner maps ranges to
    windows.  A 2-D window's rows are the 1-D window on the leading axis,
    exact as sqrt(fl(dx^2)) = |dx|.  Ranges are summed over a segment tree
    of size 2N built per call; runs of equal ranges are summed once.
    """

    def __init__(self, grid: HalfSpaceGrid, centers: np.ndarray, radii: np.ndarray):
        self.grid = grid
        self.centers = np.asarray(centers, dtype=float).reshape(-1, grid.n)
        self.radii = np.asarray(radii, dtype=float)
        owner = np.arange(len(self.radii))
        xc, radii, off2, start = self.centers[:, -1], self.radii, None, 0
        if grid.n == 2:
            # a window that meets no row keeps one, clipped into the grid:
            # every node of it lies at least r away, so its range is empty
            lo0, hi0 = _window_bounds(grid.axes[0], self.centers[:, 0], radii)
            lo0 = np.minimum(lo0, grid.nx[0] - 1)
            rows, owner = _expand(lo0, np.maximum(hi0, lo0 + 1))
            d0 = grid.axes[0][rows] - self.centers[owner, 0]
            xc, radii, off2 = xc[owner], radii[owner], d0 * d0
            start = rows * grid.nx[-1]
        lo, hi = _window_bounds(grid.axes[-1], xc, radii, off2)
        lo, hi = lo + start, hi + start
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        self.owner = owner
        self.window_starts = np.flatnonzero(np.diff(owner, prepend=-1))
        self.run_starts = np.flatnonzero(first)
        self.run_of = np.cumsum(first) - 1
        self.lo, self.hi = lo[first], hi[first]

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Sum of values[k] (shape (N,) or (N, m)) over each window."""
        n = self.grid.n_spatial
        tree = np.zeros((2 * n,) + values.shape[1:])
        tree[n:] = values
        for lo, hi in _tree_levels(n):
            tree[lo:hi] = tree[2 * lo:2 * hi:2] + tree[2 * lo + 1:2 * hi:2]
        runs = np.zeros((len(self.lo),) + values.shape[1:])
        for w, nodes in _canonical_nodes(n, self.lo, self.hi):
            runs[w] += tree[nodes]
        return np.add.reduceat(np.take(runs, self.run_of, axis=0), self.window_starts)

    def scatter(self, weights: np.ndarray, op=np.add) -> np.ndarray:
        """Per node, op-reduction (np.add or np.maximum) of the weights of
        the windows that hold it; 0 where no window does."""
        n = self.grid.n_spatial
        per_run = op.reduceat(weights[self.owner], self.run_starts)
        acc = np.zeros(2 * n)
        for w, nodes in _canonical_nodes(n, self.lo, self.hi):
            op.at(acc, nodes, per_run[w])
        for lo, hi in reversed(_tree_levels(n)):
            for child in (acc[2 * lo:2 * hi:2], acc[2 * lo + 1:2 * hi:2]):
                op(child, acc[lo:hi], out=child)
        return acc[n:]

    def tent_sums(self, values: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Per window, read as the ball B(c, r): the sum of values (N, nt)
        over the tent T(B), found on the window's nodes; one pairwise numpy
        sum per ball, in the order of a whole-grid tent mask."""
        flat, at = _expand(self.lo[self.run_of], self.hi[self.run_of])
        size = np.bincount(self.owner[at], minlength=len(self.centers))
        out = np.zeros(len(self.centers))
        for w, nodes in enumerate(np.split(flat, np.cumsum(size))[:-1]):
            tent = _ball_tent(self.grid.points[nodes], self.centers[w], self.radii[w],
                              caps[nodes])
            out[w] = values[nodes][tent].sum()
        return out


def _cone_windows(f_values: np.ndarray, grid: HalfSpaceGrid, spec: ConeSpec):
    """(y, t) indices of the nonzero nodes and the windows of their cones."""
    ys, js = np.nonzero(f_values)
    return ys, js, _Windows(grid, grid.points[ys], cone_caps(grid, spec)[ys, js])


def area_S(f: GridFunction, q: float, spec: ConeSpec) -> SpatialFunction:
    """The q-area function; evaluated at every grid vertex."""
    q = float(q)
    if not (1.0 <= q < np.inf):
        raise ValueError("q must lie in [1, inf)")
    g = f.grid
    absq = np.abs(f.values) ** q
    ys, js, win = _cone_windows(absq, g, spec)
    den = win.gather(g.gamma_y)
    contrib = absq[ys, js] * g.gamma_y[ys] * g.wt[js] / den
    Sq = win.scatter(contrib)
    return SpatialFunction(g, Sq ** (1.0 / q))


def area_S_sup(f: GridFunction, spec: ConeSpec) -> SpatialFunction:
    """S_inf: pointwise sup of |f| over the cone nodes."""
    g = f.grid
    absf = np.abs(f.values)
    ys, js, win = _cone_windows(absf, g, spec)
    S = win.scatter(absf[ys, js], np.maximum)
    return SpatialFunction(g, S)


def area_S_truncated(f: GridFunction, q: float, spec: ConeSpec, h: float) -> SpatialFunction:
    """Area function over the truncated cone {t < h}."""
    cut = np.where(f.grid.t[None, :] < h, f.values, 0.0)
    return area_S(GridFunction(f.grid, cut), q, spec)


def carleson_C(f: GridFunction, q: float, alpha: float, beta: float,
               dict_: BallDictionary) -> SpatialFunction:
    """C_q f(x): max tent q-average over dictionary balls admitting x.

    A ball admits x when x lies in B(c_B, alpha r_B ^ beta m(c_B)); the
    dictionary is taken literally (no admissibility filter here; contrast
    the Carleson-measure norm, which restricts to admissible balls).
    """
    q = float(q)
    if not (1.0 < q < np.inf):
        raise ValueError("q must lie in (1, inf)")
    g = f.grid
    caps = cone_caps(g, ConeSpec(alpha, beta))
    weighted = np.abs(f.values) ** q * g.gamma_y[:, None] * g.wt[None, :]
    centers, radii = dict_.centers, dict_.radii
    mass = _Windows(g, centers, radii).tent_sums(weighted, caps)
    # one scalar power per ball: numpy's array power can differ in the last ulp
    val = [(m / gam) ** (1.0 / q) for m, gam in zip(mass, _gamma_balls(centers, radii))]
    admit = _pencil_caps(alpha, beta, centers, radii)
    return SpatialFunction(g, _Windows(g, centers, admit).scatter(np.array(val), np.maximum))


def tent_norm(f: GridFunction, pq: ExponentPair, alpha: float, beta: float,
              dict_: BallDictionary | None = None,
              continuous_intent: bool = False) -> float:
    """The T^{p,q} norm: ||S_q f||_{L^p(gamma)}, or ||C_q f||_inf at p = inf."""
    spec = ConeSpec(alpha, beta)
    if pq.p == np.inf:
        if dict_ is None:
            raise ValueError("p = inf needs a ball dictionary for C_q")
        return lp_gamma_norm(carleson_C(f, pq.q, alpha, beta, dict_), np.inf)
    if pq.q == np.inf:
        if not continuous_intent:
            raise ValueError("q = inf requires continuous-intent values")
        return lp_gamma_norm(area_S_sup(f, spec), pq.p)
    return lp_gamma_norm(area_S(f, pq.q, spec), pq.p)


def maximal_noncentered(g: SpatialFunction, level: float,
                        dict_: BallDictionary) -> SpatialFunction:
    """Non-centered maximal function over admissible dictionary balls.

    Averages use the grid quadrature for both numerator and denominator so
    that M(1) = 1 exactly.
    """
    grid = g.grid
    gw = grid.gamma_y
    keep = dict_._admits(level)
    win = _Windows(grid, dict_.centers[keep], dict_.radii[keep])
    num, den = win.gather(np.stack([np.abs(g.values) * gw, gw], axis=1)).T
    avg = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return SpatialFunction(grid, win.scatter(avg, np.maximum))


def _centered_ladder(grid: HalfSpaceGrid, level: float, columns: np.ndarray):
    """Per rung k = 0..6 of B(x, 2^-k level m(x)): the gamma-sums (N, L) of
    the columns (N, L) over each node's ball, and the ball's gamma (N,).

    Each column gets the tree adds and reduceat it would get alone.  Blocks
    of at most 2^21 range sums bound the memory of 2-D windows."""
    gw = grid.gamma_y
    sums = np.column_stack([gw[:, None] * columns, gw])
    base = level * grid.m_y
    for k in range(7):
        win = _Windows(grid, grid.points, base * 2.0 ** (-k))
        step = max(1, (1 << 21) // len(win.owner))
        rung = np.hstack([win.gather(sums[:, i:i + step])
                          for i in range(0, sums.shape[1], step)])
        yield rung[:, :-1], rung[:, -1]


def maximal_centered(g: SpatialFunction, level: float) -> SpatialFunction:
    """Centered maximal function, radius ladder {2^-k level m(x)}, k=0..6."""
    out = np.zeros(g.grid.n_spatial)
    for num, den in _centered_ladder(g.grid, level, np.abs(g.values)[:, None]):
        np.maximum(out, num[:, 0] / den, out=out)
    return SpatialFunction(g.grid, out)


def stopping_time(g: GridFunction, qprime: float, spec: ConeSpec, M_const: float,
                  h_ladder, cq: SpatialFunction) -> SpatialFunction:
    """h(x): the largest ladder height with S_{q',h} g(x) <= M * C_{q'} g(x).

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
        ok = area_S_truncated(g, qprime, spec, h).values <= bound
        out = np.where(ok, h, out)
        all_pass &= ok
    out[all_pass] = np.inf
    return SpatialFunction(grid, out)
