"""Area functions, Carleson functional, maximal functions, tent norms.

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

Every ball on the grid is a window {k : |x_k - c| < r} around a center
coordinate c, node or not: cone sections, influence balls, the centered
ladders and the dictionary balls of C_q, the non-centered maximal function,
the containing-ball density points, the Whitney balls and the stopping
densities.  One private layer evaluates them all.  A window set (_Windows)
is index ranges [lo, hi), plus an owner that maps ranges to windows where a
window has several, one per grid row its disk meets, which happens only in
2-D.  gather sums node values over each window, scatter gives each node the
sum or max of the weights of the windows that hold it, nodes lists one
window's nodes and ranges() every range with its window.  _ball_windows
finds the ranges of balls with the same float predicate as a dense
distance mask, so the node sets are identical, and _tent_sums sums over the
tent T(B) of each dictionary ball on its window's nodes.  Ranges are summed
over the O(log N) canonical nodes of a segment tree: a call costs
O(ranges log N) with no cache, and every sum adds nonnegative terms only: a
prefix-sum difference would cancel away the e^{-|y|^2} tails.

The cone windows of S_q, S_inf and the cone averages hold one window per
nonzero cell (y_i, t_j), and they are built from those cells, given in
np.nonzero order, never from an (N, nt) array: area_S reads |f|^q on the
nonzero cells of f only, and drops the cells where it underflows to 0
(1e-200 at q = 2), so the windows are those of the nonzero set of |f|^q;
validate_atom passes the nonzero cells of an atom's block, offset by its
box, which are the cells, in the order, of the expanded atom.  Work and
memory follow the support, not the grid.  In 1-D the windows come from row
breakpoints: the cap min(alpha t_j, beta m_i) ascends in j, so each node k
in the row's widest window (at its top cap) enters the cell's window at one
column, the first with alpha t_j > |x_k - x_i|, a searchsorted on alpha *
grid.t.  A cell's [lo, hi) is its node widened by the breakpoints at or
before its column, int32 ranges, for O(rows * reach + cells) work and no
float per cell.  Where the breakpoints number more than twice the cells
(wide caps, beta = inf, sparse rows) and in 2-D, each cell's window is the
ball window at its own cap instead.  Up to twice the cells the breakpoints
take about the time of the ball windows, gather and scatter included, and
half their memory; past that the ball windows are the faster, and past
about 3.5 times also the smaller, since the breakpoints grow as rows *
reach.  Either way the ranges, and so every float, are those of
_window_bounds at the cell's cap, to ==.
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

from .geometry import (
    _GAMMA_UNDERFLOW, ConeSpec, _ball_averages, _ball_tent, _distance, _per_gamma, cutoff_m,
)
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
    return spec.caps(grid.m_y[:, None], grid.t)


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
    """Windows given as index ranges [lo, hi) of the nodes, with gather and
    scatter.  owner maps ranges to windows where a window has several (in
    2-D, one range per grid row); it is None, the identity, in 1-D.  Ranges
    are summed over a segment tree of size 2N built per call; runs of equal
    ranges are summed once."""

    def __init__(self, grid: HalfSpaceGrid, lo: np.ndarray, hi: np.ndarray,
                 owner: np.ndarray | None = None):
        self.grid = grid
        first = np.ones(len(lo), dtype=bool)
        first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        self.owner = owner
        if owner is not None:
            self.window_starts = np.flatnonzero(np.diff(owner, prepend=-1))
        self.run_starts = np.flatnonzero(first)
        self.run_of = np.cumsum(first, dtype=np.int32)
        self.run_of -= 1
        self.lo, self.hi = lo[first], hi[first]

    def ranges(self):
        """(lo, hi, window) of every range, in window order."""
        window = np.arange(len(self.run_of)) if self.owner is None else self.owner
        return self.lo[self.run_of], self.hi[self.run_of], window

    def nodes(self, w: int) -> np.ndarray:
        """The ascending node indices of window w."""
        span = (w, w + 1) if self.owner is None else np.searchsorted(self.owner, (w, w + 1))
        runs = self.run_of[slice(*span)]
        return _expand(self.lo[runs], self.hi[runs])[0]

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
        per_range = np.take(runs, self.run_of, axis=0)
        if self.owner is None:
            return per_range
        return np.add.reduceat(per_range, self.window_starts)

    def scatter(self, weights: np.ndarray, op=np.add) -> np.ndarray:
        """Per node, op-reduction (np.add or np.maximum) of the weights of
        the windows that hold it; 0 where no window does."""
        n = self.grid.n_spatial
        per_range = weights if self.owner is None else weights[self.owner]
        per_run = op.reduceat(per_range, self.run_starts)
        acc = np.zeros(2 * n)
        for w, nodes in _canonical_nodes(n, self.lo, self.hi):
            op.at(acc, nodes, per_run[w])
        for lo, hi in reversed(_tree_levels(n)):
            for child in (acc[2 * lo:2 * hi:2], acc[2 * lo + 1:2 * hi:2]):
                op(child, acc[lo:hi], out=child)
        return acc[n:]


def _ball_windows(grid: HalfSpaceGrid, centers: np.ndarray, radii: np.ndarray) -> _Windows:
    """The windows {k : |x_k - c| < r} of the balls B(c, r), centers (M, n);
    a 2-D window's rows are the 1-D window on the leading axis, exact as
    sqrt(fl(dx^2)) = |dx|."""
    if grid.n == 1:
        return _Windows(grid, *_window_bounds(grid.axes[0], centers[:, 0], radii))
    # a window that meets no row keeps one, clipped into the grid: every
    # node of it lies at least r away, so its range is empty
    lo0, hi0 = _window_bounds(grid.axes[0], centers[:, 0], radii)
    lo0 = np.minimum(lo0, grid.nx[0] - 1)
    rows, owner = _expand(lo0, np.maximum(hi0, lo0 + 1))
    d0 = grid.axes[0][rows] - centers[owner, 0]
    lo, hi = _window_bounds(grid.axes[1], centers[owner, 1], radii[owner], d0 * d0)
    start = rows * grid.nx[1]
    return _Windows(grid, lo + start, hi + start, owner)


def _cone_windows(grid: HalfSpaceGrid, spec: ConeSpec, ys: np.ndarray, js: np.ndarray):
    """The windows of the cones of the cells (ys, js), given in np.nonzero
    order (rows ascending, columns ascending within a row).

    In 1-D the windows come from the breakpoints of each row's cells
    (_cone_ranges) unless those number more than twice the cells (see the
    module docstring); otherwise, and in 2-D, each cell's window is the
    ball window at its own cap."""
    if grid.n == 1 and ys.size:
        last = np.flatnonzero(np.r_[ys[1:] != ys[:-1], True])
        rows = ys[last]
        lo, hi = _window_bounds(grid.axes[0], grid.axes[0][rows],
                                spec.caps(grid.m_y[rows], grid.t[js[last]]))
        if np.sum(hi - lo - 1) <= 2 * ys.size:
            return _Windows(grid, *_cone_ranges(grid, spec, ys, js, rows, lo, hi))
    return _ball_windows(grid, grid.points[ys], spec.caps(grid.m_y[ys], grid.t[js]))


def _breakpoints(axis: np.ndarray, rows: np.ndarray, ends: np.ndarray,
                 alpha_t: np.ndarray, base: np.ndarray):
    """Per node k in range(rows[r] + 1, ends[r]), the first column whose cap
    alpha_t exceeds |axis[k] - axis[rows[r]]|, as the key base[r] + column,
    and where each row's keys start.  Keys ascend: the distance, and so the
    column, grows with k."""
    k, at = _expand(rows + 1, ends)
    key = np.searchsorted(alpha_t, _distance(axis[k] - axis[rows][at]), side="right")
    key += base[at]
    return key, np.searchsorted(key, base)


def _cone_ranges(grid: HalfSpaceGrid, spec: ConeSpec, ys: np.ndarray, js: np.ndarray,
                 rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """[lo, hi) (int32) of the cone window of every cell (ys, js) of a 1-D
    grid, from the windows [lo, hi) of its rows at their top caps.

    A row's cap min(alpha t_j, beta m) ascends in j, and every node of the
    row's top window lies nearer than beta m, so the cell (i, j) holds a
    node k of it exactly when alpha t_j > |x_k - x_i|: when j is at or past
    k's breakpoint.  The nodes left of x_i are those right of the mirrored
    node on -axis[::-1], whose distances are bit-identical."""
    n, nt = grid.n_spatial, grid.nt
    alpha_t = spec.alpha * grid.t
    base = rows * (nt + 1)
    right, r0 = _breakpoints(grid.axes[0], rows, hi, alpha_t, base)
    left, l0 = _breakpoints(-grid.axes[0][::-1], n - 1 - rows, n - lo, alpha_t, base)
    # a cell's key lands past its row's keys at or before its column: the
    # count it holds, plus where the row's keys start, which shift takes off
    key = ys * (nt + 1)
    key += js
    shift = np.zeros(n, dtype=np.int64)
    shift[rows] = rows + 1 - r0
    out_hi = np.searchsorted(right, key, side="right")
    out_hi += shift[ys]
    out_hi = out_hi.astype(np.int32)
    shift[rows] = rows + l0
    out_lo = np.searchsorted(left, key, side="right")
    np.subtract(shift[ys], out_lo, out=out_lo)
    return out_lo.astype(np.int32), out_hi


def area_S(f: GridFunction, q: float, spec: ConeSpec) -> SpatialFunction:
    """The q-area function; evaluated at every grid vertex."""
    q = float(q)
    if not (1.0 <= q < np.inf):
        raise ValueError("q must lie in [1, inf)")
    ys, js = np.nonzero(f.values)
    return SpatialFunction(f.grid, _cone_area(f.grid, spec, ys, js, f.values[ys, js], q))


def area_S_sup(f: GridFunction, spec: ConeSpec) -> SpatialFunction:
    """S_inf: pointwise sup of |f| over the cone nodes."""
    ys, js = np.nonzero(f.values)
    return SpatialFunction(f.grid, _cone_area(f.grid, spec, ys, js, f.values[ys, js], np.inf))


def _cone_area(grid: HalfSpaceGrid, spec: ConeSpec, ys: np.ndarray, js: np.ndarray,
               vals: np.ndarray, q: float) -> np.ndarray:
    """S_q at every node (S_inf at q = inf) of the function that is vals on
    the nonzero cells (ys, js), in np.nonzero order, and 0 elsewhere.

    The cones are those of the cells where |f|^q is not 0 in floats, as
    on the whole grid: a value whose power underflows, such as 1e-200 at
    q = 2, opens none, so it never divides by a cone whose gamma is 0."""
    if q == np.inf:
        return _cone_windows(grid, spec, ys, js).scatter(np.abs(vals), np.maximum)
    if not q >= 1.0:
        raise ValueError("q must lie in [1, inf)")
    absq = np.abs(vals)
    absq **= q
    keep = absq != 0.0
    if not keep.all():
        ys, js, absq = ys[keep], js[keep], absq[keep]
    win = _cone_windows(grid, spec, ys, js)
    den = win.gather(grid.gamma_y)
    contrib = _per_gamma(absq * grid.gamma_y[ys] * grid.wt[js], den)
    return win.scatter(contrib) ** (1.0 / q)


def area_S_truncated(f: GridFunction, q: float, spec: ConeSpec, h: float) -> SpatialFunction:
    """Area function over the truncated cone {t < h}."""
    cut = np.where(f.grid.t[None, :] < h, f.values, 0.0)
    return area_S(GridFunction(f.grid, cut), q, spec)


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


def _tent_sums(grid: HalfSpaceGrid, centers: np.ndarray, radii: np.ndarray,
               values: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per ball B(centers[w], radii[w]): the sum of values (N, nt) over the
    tent T(B), found on the nodes of the ball's window; one pairwise numpy
    sum per ball, in the order of a whole-grid tent mask."""
    lo, hi, window = _ball_windows(grid, centers, radii).ranges()
    flat, at = _expand(lo, hi)
    size = np.bincount(window[at], minlength=len(radii))
    out = np.zeros(len(radii))
    for w, nodes in enumerate(np.split(flat, np.cumsum(size))[:-1]):
        tent = _ball_tent(grid.points[nodes], centers[w], radii[w], caps[nodes])
        out[w] = values[nodes][tent].sum()
    return out


def tent_norm(f: GridFunction, pq: ExponentPair, spec: ConeSpec,
              dict_: BallDictionary | None = None,
              continuous_intent: bool = False) -> float:
    """The T^{p,q} norm: ||S_q f||_{L^p(gamma)}, or ||C_q f||_inf at p = inf."""
    if pq.p == np.inf:
        if dict_ is None:
            raise ValueError("p = inf needs a ball dictionary for C_q")
        return lp_gamma_norm(carleson_C(f, pq.q, spec, dict_), np.inf)
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
    win = _ball_windows(grid, dict_.centers[keep], dict_.radii[keep])
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
        win = _ball_windows(grid, grid.points, base * 2.0 ** (-k))
        step = max(1, (1 << 21) // len(win.run_of))
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
