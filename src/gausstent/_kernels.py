"""Private kernels of the package: ball measures, the tent predicate, the
window layer and the sums built on them.

Import rule: this module imports nothing from gausstent, it is the only
module a private name is imported from, and every name it defines starts
with an underscore.  Grids, cone specs and grid functions reach it only as
arguments.

The gamma kernel _gamma_balls supports n in {1, 2}: n = 1 has a closed form
for gamma of an interval via erfc, n = 2 is a sum of nonnegative Poisson
terms, the noncentral chi^2 law with two degrees of freedom.  The 1-D erfc
is a port of the Cephes routine that scipy.special.erfc evaluates, equal to
it bit for bit; both dimensions run on numpy and Python floats only.

Every ball on the grid is a window {k : |x_k - c| < r} around a center
coordinate c, node or not: cone sections, influence balls, the centered
ladders and the dictionary balls of C_q, the containing-ball density
points, the Whitney balls and the stopping densities.  One private layer
evaluates them all.  A window set (_Windows) is index ranges [lo, hi), plus
an owner that maps ranges to windows where a window has several, one per
grid row its disk meets, which happens only in 2-D.  gather sums node
values over each window, scatter gives each node the sum or max of the
weights of the windows that hold it, nodes lists one window's nodes and
ranges() every range with its window.  _ball_windows finds the ranges of
balls with the same float predicate as a dense distance mask, so the node
sets are identical, and _tent_sums sums over the tent T(B) of each
dictionary ball on its window's nodes.  Ranges are summed over the O(log N)
canonical nodes of a segment tree: a call costs O(ranges log N) with no
cache, and every sum adds nonnegative terms only: a prefix-sum difference
would cancel away the e^{-|y|^2} tails.

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
_cone_area takes a tuple of cone specs and returns one area function per
spec, from one pass over the cells: the support, |f|^q and its weights are
taken once.  In 1-D the specs of one alpha build their windows and
gamma-sums once, at the largest beta B among them, and every smaller beta
is exact by nesting.  beta m <= B m in floats, so the cap min(alpha t_j,
beta m_i) is min(min(alpha t_j, B m_i), beta m_i), and a cell's window at
beta is its window at B cut to the row's ball window at beta m_i: the
window at B itself where alpha t_j <= beta m_i, the row's ball window
elsewhere.  A window's gamma-sum depends on its range alone (the same
canonical tree nodes, added in the same order), so the gamma-sums at beta
are a where between those at B and one gather over the rows' ball
windows, to ==.  Only the scatter runs once per spec.  In 2-D each spec
builds its own windows.
Which (y, t) lie in T(B) is decided in one place, _ball_tent, for grid
cells, measure points and sample points alike.
The centered ladder B(x, 2^-k level m(x)), k = 0..6, is built in one place,
_centered_ladder, for any number of node columns at once.
The GTNT writer, _write_gtnt, writes a band of flat spatial rows and leaves
every other value a hole in the file, which reads back as +0.0: atom files
store their box's rows only, with the bytes of the dense function.
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np


def _gamma_balls(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """gamma(B(c, r)) for centers, shape (K, n), and radii, shape (K,).

    n = 1 uses the closed form (sqrt(pi)/2)(erfc(|c|-r) - erfc(|c|+r))
    elementwise, with the Cephes port _erfc.

    n = 2: with Y ~ N(c, I/2), gamma(B) = pi P(|Y| < r), and 2|Y|^2 is
    noncentral chi^2 with 2 degrees of freedom and noncentrality 2|c|^2.
    Its Poisson mixture form (Johnson, Kotz and Balakrishnan, Continuous
    Univariate Distributions, vol. 2, ch. 29) gives, for independent
    I ~ Poisson(r^2) and J ~ Poisson(|c|^2),

        gamma(B) = pi P(I > J) = pi sum_{i >= 1} t_i,
        t_i = P(I = i) P(J <= i - 1).

    Every term is nonnegative, J's distribution function is a running sum
    from 0 upward and the pmfs are exp(k log lam - lam - log k!), with log k!
    a running sum of logs: nothing cancels, so the far tail keeps its
    relative precision.  The sum stops at K = floor(m + 12 sqrt(m) + 60),
    m = max(|c|^2, r^2), and the terms dropped are at most
    5e-16 (1 + sqrt(m)/12) times the terms kept (below 3e-15 at |c|, r <= 40).
    With s = sqrt(m):
      - for i >= K - 1, t_{i+1}/t_i = (r^2/(i+1)) P(J <= i)/P(J <= i - 1)
        <= (r^2/K) / P(J <= K - 2) =: q, and
        Bernstein's bound P(J >= |c|^2 + x) <= exp(-x^2 / (2(|c|^2 + x/3)))
        at x = K - 1 - |c|^2 >= 12 s + 58 gives P(J >= K - 1) <= e^-72,
        so sum_{i >= K} t_i <= t_{K-1} q/(1-q) and 1/(1-q) < 1 + s/12;
      - at a = floor(m + 6 s + 30), P(J <= a - 1) >= 1/2 by the same bound
        and t_{K-1}/t_a <= 2 (m/(a+1))^{K-1-a}
        <= 2 (s^2/(s^2 + 6 s + 30))^{6 s + 28} <= 2 e^-36,
        and the kept sum is at least t_a.
    A ball at distance d = |c| - r >= 27.5 from the origin has gamma <=
    pi e^{-d^2}, which rounds to 0; a ball holding B(0, d), d = r - |c| >=
    6.5, has pi - gamma <= pi e^{-d^2}, and gamma rounds to pi.  Those two
    skip the sum, whose length grows as m: a ball of radius 1e4 about the
    origin would take 1e8 terms.  Each ball is summed on its own, so its
    gamma does not depend on the others in the batch.
    """
    n = centers.shape[1]
    if n == 1:
        c = np.abs(centers[:, 0])
        # erfc form keeps precision in the far tail, where erf(c +- r)
        # both round to 1
        return np.sqrt(np.pi) / 2.0 * (_erfc(c - radii) - _erfc(c + radii))
    if n == 2:
        rho2 = (centers * centers).sum(axis=1).tolist()
        r2 = (radii * radii).tolist()
        gap = (np.sqrt(rho2) - radii).tolist()
        terms = [int(m + 12.0 * math.sqrt(m) + 60.0) if -6.5 < d < 27.5 else 0
                 for m, d in zip(map(max, rho2, r2), gap)]
        k = np.arange(max(terms, default=0))
        log_fact = np.cumsum(np.log(np.maximum(k, 1)))
        return np.array([_gamma_disc(a, b, k[:K], log_fact[:K]) if K
                         else 0.0 if d >= 27.5 else math.pi
                         for a, b, d, K in zip(rho2, r2, gap, terms)])
    raise ValueError("only n in {1, 2} supported")


def _poisson_pmf(lam: float, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """P(X = k) for X ~ Poisson(lam), with log_fact = log k!."""
    if lam == 0.0:
        return (k == 0).astype(float)
    return np.exp(k * math.log(lam) - lam - log_fact)


def _gamma_disc(rho2: float, r2: float, k: np.ndarray, log_fact: np.ndarray) -> float:
    """pi sum_{1 <= i < K} P(I = i) P(J <= i - 1), I ~ Poisson(r2) and
    J ~ Poisson(rho2), over k = 0 .. K-1 (see _gamma_balls)."""
    cdf_j = np.cumsum(_poisson_pmf(rho2, k, log_fact))
    return math.pi * float(np.sum(_poisson_pmf(r2, k, log_fact)[1:] * cdf_j[:-1]))


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
    """sup of gamma(B(c, factor r)) / gamma(B(c, r)) over the balls whose
    gamma(B) is positive in floats, 1 when there are none.  Past |c| of
    about 27 exp(-|c|^2) underflows, gamma(B) is 0 and the ratio has no
    value, so those balls are left out."""
    den = _gamma_balls(centers, radii)
    pos = den > 0
    ratio = _gamma_balls(centers[pos], factor * radii[pos]) / den[pos]
    return float(ratio.max(initial=1.0))


_GAMMA_UNDERFLOW = ("gamma(B) is 0 in floats for a ball on this box: exp(-|y|^2) "
                    "underflows past |y| of about 27")


def _per_gamma(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den for gamma measures den of balls; a den that is 0 in floats
    raises one FloatingPointError that names the underflow."""
    with np.errstate(divide="raise", invalid="raise"):
        try:
            return num / den
        except FloatingPointError:
            raise FloatingPointError(_GAMMA_UNDERFLOW) from None


def _ball_averages(mass: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """mass[k] / gamma(B(centers[k], radii[k])), and 0 where mass[k] is 0: a
    ball whose tent holds no mass reads 0 whatever its gamma(B)."""
    out = np.zeros(len(mass))
    pos = mass > 0
    out[pos] = _per_gamma(mass[pos], _gamma_balls(centers[pos], radii[pos]))
    return out


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


def _cone_area(grid: HalfSpaceGrid, specs: tuple, ys: np.ndarray, js: np.ndarray,
               vals: np.ndarray, q: float) -> list:
    """S_q at every node (S_inf at q = inf), one array per ConeSpec of specs,
    of the function that is vals on the nonzero cells (ys, js), in
    np.nonzero order, and 0 elsewhere.

    The cones are those of the cells where |f|^q is not 0 in floats, as
    on the whole grid: a value whose power underflows, such as 1e-200 at
    q = 2, opens none, so it never divides by a cone whose gamma is 0.
    In 1-D the specs of one alpha share the windows and the gamma-sums of
    the largest beta among them (_narrowing, and the module docstring); in
    2-D each spec builds its own."""
    if q == np.inf:
        weights = np.abs(vals)
    elif not q >= 1.0:
        raise ValueError("q must lie in [1, inf]")
    else:
        absq = np.abs(vals)
        absq **= q
        keep = absq != 0.0
        if not keep.all():
            ys, js, absq = ys[keep], js[keep], absq[keep]
        weights = absq * grid.gamma_y[ys] * grid.wt[js]
    groups = {}
    for k, spec in enumerate(specs):
        groups.setdefault(spec.alpha if grid.n == 1 else k, []).append(k)
    out = [None] * len(specs)
    for group in groups.values():
        top = max((specs[k] for k in group), key=lambda s: s.beta)
        win = _cone_windows(grid, top, ys, js)
        den = None if q == np.inf else win.gather(grid.gamma_y)
        narrowed = None
        for k in group:
            if specs[k].beta == top.beta:
                w, d = win, den
            else:
                narrowed = narrowed or _narrowing(grid, top.alpha, win, den, ys, js)
                w, d = narrowed(specs[k].beta)
            out[k] = w.scatter(weights, np.maximum) if q == np.inf else \
                w.scatter(_per_gamma(weights, d)) ** (1.0 / q)
    return out


def _narrowing(grid: HalfSpaceGrid, alpha: float, win: _Windows,
               den: np.ndarray | None, ys: np.ndarray, js: np.ndarray):
    """From the 1-D cone windows win of the cells (ys, js) at apertures
    (alpha, B), and their gamma-sums den (None at q = inf): the function
    that gives the windows and gamma-sums at (alpha, beta), beta < B.

    A cell keeps its window where alpha t_j <= beta m_i, and elsewhere,
    where its cap is beta m_i, takes its row's ball window at beta m_i
    (see the module docstring)."""
    first = np.ones(ys.size, dtype=bool)
    first[1:] = ys[1:] != ys[:-1]
    at = np.cumsum(first) - 1
    rows = ys[first]
    lo, hi = win.lo[win.run_of], win.hi[win.run_of]
    alpha_t = alpha * grid.t[js]

    def narrowed(beta: float):
        reach = beta * grid.m_y[rows]
        rlo, rhi = _window_bounds(grid.axes[0], grid.axes[0][rows], reach)
        ball = alpha_t > reach[at]
        nested = _Windows(grid, np.where(ball, rlo[at], lo), np.where(ball, rhi[at], hi))
        if den is None:
            return nested, None
        return nested, np.where(ball, _Windows(grid, rlo, rhi).gather(grid.gamma_y)[at], den)
    return narrowed


def _cone_average_over(A_mask: np.ndarray, H: GridFunction,
                       spec: ConeSpec) -> float:
    """int_A ( iint_{cone(x)} H / gamma(B(y, cap)) dgamma dt/t ) dgamma(x),
    evaluated by the exact grid rearrangement."""
    g = H.grid
    ys, js = np.nonzero(H.values)
    win = _cone_windows(g, spec, ys, js)
    den, mass_in_A = win.gather(np.stack([g.gamma_y, g.gamma_y * A_mask], axis=1)).T
    return float(np.sum(_per_gamma(H.values[ys, js] * g.gamma_y[ys] * g.wt[js] * mass_in_A,
                                   den)))


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


def _density_columns(grid: HalfSpaceGrid, F: np.ndarray, eta: float,
                     level: float) -> np.ndarray:
    """density_points of every column of the (N, L) bool array F at once."""
    ok = np.ones(F.shape, dtype=bool)
    for num, den in _centered_ladder(grid, level, F):
        ok &= num >= eta * den[:, None]
    return ok


_C_OVERLAP = 2.0    # ball radius dist(x, O^c) / C; C >= 2 keeps the cover exact


def _ratio(lhs: float, rhs: float, key: str = "ratio") -> dict:
    """{key: lhs / rhs, "vacuous": both zero}; x / 0 reads inf, 0 / 0 reads 0."""
    return {key: lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
            "vacuous": rhs == 0 and lhs == 0}


def _csv_rows(path, skiprows: int, last: str) -> np.ndarray:
    """The rows of a numeric CSV file: coordinates, t, then `last`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")            # an empty file is rejected below
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    if data.size == 0 or data.shape[1] < 3:
        raise ValueError(f"{path}: no rows of coordinates, t and {last}")
    return data


_GTNT_MAGIC = b"GTNT"
_GTNT_VERSION = 1


def _write_gtnt(grid: HalfSpaceGrid, path, rows: np.ndarray, row0: int = 0) -> None:
    """The GTNT file of the function on grid whose flat spatial rows row0,
    row0 + 1, ... are `rows` and whose other values are +0.0.  Those others
    are not written: a seek past them, then a truncate to the full length,
    leaves zero bytes, the bytes of +0.0."""
    with open(path, "wb") as fh:
        fh.write(_GTNT_MAGIC)
        fh.write(struct.pack("<II", _GTNT_VERSION, grid.n))
        for k in grid.nx:
            fh.write(struct.pack("<I", k))
        fh.write(struct.pack("<I", grid.nt))
        for (a, b) in grid.spatial_box:
            fh.write(struct.pack("<dd", a, b))
        fh.write(struct.pack("<dd", grid.t_min, grid.t_max))
        start = fh.tell()
        fh.seek(start + 8 * row0 * grid.nt)
        fh.write(np.ascontiguousarray(rows, dtype="<f8").data)
        fh.truncate(start + 8 * grid.n_spatial * grid.nt)
