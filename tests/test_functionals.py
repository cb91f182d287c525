import numpy as np
import pytest

from _families import bump, bump_2d
from gausstent.geometry import (
    Ball, ConeSpec, cutoff_m, gamma_ball, is_admissible,
)
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, RegionMask,
    halfspace_integral, lp_gamma_norm,
)
from gausstent import _kernels
from gausstent._kernels import (
    _Windows, _ball_windows, _centered_ladder, _cone_average_over, _cone_ranges,
    _cone_windows, _expand, _tent_sums, _window_bounds,
)
from gausstent.functionals import (
    BallDictionary, ExponentPair, area_S, carleson_C,
    cone_caps, default_dictionary, stopping_time, tent_norm, tent_norms,
)
from gausstent.cli import APERTURE_GRID
from gausstent.duality import check_duality_pq
from gausstent.families import random_bump
from gausstent.whitney import containing_density_points


# -- dense references for the window layer ---------------------------------

def _dense_dist(grid):
    """|x_i - x_k| over all spatial node pairs, shape (N, N)."""
    p = grid.points
    if grid.n == 1:
        return np.abs(p[:, 0][:, None] - p[:, 0][None, :])
    return np.sqrt(np.sum((p[:, None, :] - p[None, :, :]) ** 2, axis=-1))


def _dense_den(grid, spec, D):
    caps = cone_caps(grid, spec)
    return np.stack([(D < caps[:, j][:, None]) @ grid.gamma_y
                     for j in range(grid.nt)], axis=1)


def _dense_area(f, q, spec):
    """(S_q, S_inf) from the N x N cone masks, one t-slice at a time."""
    g = f.grid
    D = _dense_dist(g)
    caps = cone_caps(g, spec)
    den = _dense_den(g, spec, D)
    absf = np.abs(f.values)
    Sq = np.zeros(g.n_spatial)
    Ssup = np.zeros(g.n_spatial)
    for j in range(g.nt):
        mask = D < caps[:, j][:, None]       # row y: vertices whose cone holds (y, t_j)
        Sq += (absf[:, j] ** q * g.gamma_y * g.wt[j] / den[:, j]) @ mask
        Ssup = np.maximum(Ssup, (absf[:, j][:, None] * mask).max(axis=0))
    return Sq ** (1.0 / q), Ssup


def _two_bumps(grid):
    """Bumps of amplitude 1 and 1e-8 whose cone reaches overlap."""
    y = grid.points[:, 0]
    t = grid.t[None, :]
    shape = np.exp(-np.log(t / 0.2) ** 2)
    vals = (np.exp(-((y + 1.0) / 0.3) ** 2)[:, None]
            + 1e-8 * np.exp(-((y - 1.2) / 0.3) ** 2)[:, None]) * shape
    vals[np.abs(y - 0.1) > 2.2, :] = 0.0
    return GridFunction(grid, vals)


# -- exponents and dictionary ----------------------------------------------

def test_exponent_pair_validation():
    ExponentPair(2.0, 2.0)
    ExponentPair(np.inf, 2.0)
    ExponentPair(1.0, np.inf)
    with pytest.raises(ValueError):
        ExponentPair(np.inf, np.inf)
    with pytest.raises(ValueError):
        ExponentPair(np.inf, 1.0)
    with pytest.raises(ValueError):
        ExponentPair(0.5, 2.0)


def test_default_dictionary_admissible(grid_small):
    d = default_dictionary(grid_small, 1.0)
    assert len(d.radii) > 0
    for c, r in zip(d.centers, d.radii):
        assert r <= 1.0 * cutoff_m(c) + 1e-12
    # center-major, 7 levels: the radius m(c) of level 0 alone exceeds 0.5 m(c)
    assert np.array_equal(is_admissible(d.centers, d.radii, 0.5),
                          np.arange(len(d.radii)) % 7 != 0)


@pytest.mark.parametrize("centers,radii", [
    (np.zeros((0, 1)), np.zeros(0)),                  # empty
    ([[0.0], [1.0]], [0.5]),                          # lengths differ
    ([[0.0, 1.0, 2.0]], [0.5]),                       # n = 3
    ([0.0, 1.0], [0.5, 0.5]),                         # centers not (K, n)
    ([[0.0], [np.inf]], [0.5, 0.5]),                  # center not finite
    ([[0.0], [np.nan]], [0.5, 0.5]),
    ([[0.0], [1.0]], [0.5, 0.0]),                     # radius not positive
    ([[0.0], [1.0]], [0.5, -1.0]),
    ([[0.0], [1.0]], [0.5, np.inf]),                  # radius not finite
])
def test_ball_dictionary_rejects_bad_balls(centers, radii):
    with pytest.raises(ValueError):
        BallDictionary(centers, radii)


def test_default_dictionary_is_center_major(grid_2d):
    d = default_dictionary(grid_2d, 2.0, stride=3, n_levels=4)
    i = 0
    for c in grid_2d.points.reshape(grid_2d.nx + (2,))[::3, ::3].reshape(-1, 2):
        for k in range(4):
            assert np.array_equal(d.centers[i], c)
            assert d.radii[i] == 2.0 * cutoff_m(c) * 2.0 ** (-k)
            i += 1
    assert i == len(d.radii)


# -- area function ---------------------------------------------------------

def test_area_S_bruteforce_oracle(grid_small, rng):
    """Double-loop reference computation at probe vertices."""
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    f = bump(g)
    q = 2.0
    S = area_S(f, q, spec)
    caps = cone_caps(g, spec)
    D = _dense_dist(g)
    den = _dense_den(g, spec, D)
    probes = rng.choice(g.n_spatial, size=16, replace=False)
    for i in probes:
        acc = 0.0
        for k in range(g.n_spatial):
            for j in range(g.nt):
                if D[i, k] < caps[k, j]:
                    acc += (abs(f.values[k, j]) ** q * g.gamma_y[k]
                            * g.wt[j] / den[k, j])
        assert S.values[i] == pytest.approx(acc ** 0.5, rel=1e-12, abs=1e-300)


def test_area_identity_tpp_exact(grid_small, rng):
    # int S_q^q dgamma == iint |f|^q dgamma dt/t, an identity of the
    # shared-denominator rearrangement; exact to rounding
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    vals = rng.random((g.n_spatial, g.nt))
    f = GridFunction(g, vals)
    for q in (1.0, 2.0, 3.0):
        lhs = float(np.sum(area_S(f, q, spec).values ** q * g.gamma_y))
        rhs = halfspace_integral(GridFunction(g, vals ** q))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_area_S_rejects_bad_args(grid_small):
    f = GridFunction.zero(grid_small)
    with pytest.raises(ValueError):
        area_S(f, 0.5, ConeSpec(1.0, 1.0))
    with pytest.raises(ValueError):
        area_S(f, np.nan, ConeSpec(1.0, 1.0))


def test_area_S_zero_and_monotone_aperture(grid_small):
    g = grid_small
    assert np.all(area_S(GridFunction.zero(g), 2.0, ConeSpec(1.0, 1.0)).values == 0.0)
    f = bump(g)
    norm_small = lp_gamma_norm(area_S(f, 2.0, ConeSpec(0.5, 1.0)), 2)
    norm_large = lp_gamma_norm(area_S(f, 2.0, ConeSpec(2.0, 1.0)), 2)
    # L^2 norms agree exactly (the identity above); L^1 norms differ
    assert norm_small == pytest.approx(norm_large, rel=1e-12)


def test_area_sup_is_cone_sup(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    f = bump(g)
    S = area_S(f, np.inf, spec)
    caps = cone_caps(g, spec)
    D = _dense_dist(g)
    for i in (10, 64, 100):
        best = 0.0
        for k in range(g.n_spatial):
            sel = D[i, k] < caps[k]
            if sel.any():
                best = max(best, np.abs(f.values[k, sel]).max())
        assert S.values[i] == pytest.approx(best, abs=1e-300)


def test_window_bounds_match_dense_predicate(rng):
    # odd N; centers at nodes, cell midpoints, off-grid and outside the box;
    # radii below one cell, exactly one and a few cells, and wider than the box
    g = HalfSpaceGrid(((-8.0, 8.0),), (127,), 1e-3, 8.0, 4)
    x = g.axes[0]
    cell = g.cell
    spots = np.concatenate([x, (x[1:] + x[:-1]) / 2.0, [-9.0, -8.0 - 0.5 * cell,
                                                        8.0 + 1e-3, 12.5]])
    centers = np.tile(spots, 7)
    radii = np.repeat([0.3 * cell, cell, np.nextafter(cell, 1.0), 2.5 * cell,
                       1.0, 16.0, 40.0], len(spots))
    radii = np.concatenate([radii, rng.uniform(0.0, 20.0, 500),
                            rng.uniform(0.0, 3.0, 500)])
    centers = np.concatenate([centers, x[rng.integers(0, 127, 500)],
                              rng.uniform(-10.0, 10.0, 500)])
    # radii at a node's own float distance and one ulp either side, where
    # c + r rounds across the node and the searchsorted guess is off by one
    c_edge = rng.uniform(-9.0, 9.0, 3000)
    r_edge = np.abs(x[rng.integers(0, 127, 3000)] - c_edge)
    r_edge = np.concatenate([r_edge, np.nextafter(r_edge, 0.0),
                             np.nextafter(r_edge, 99.0)])
    centers = np.concatenate([centers, np.tile(c_edge, 3)])
    radii = np.concatenate([radii, r_edge])
    lo, hi = _window_bounds(x, centers, radii)
    assert np.all(lo <= hi)
    dense = np.abs(x[None, :] - centers[:, None]) < radii[:, None]
    k = np.arange(127)
    assert np.array_equal((k >= lo[:, None]) & (k < hi[:, None]), dense)


def test_windows_2d_match_dense_predicate(rng):
    # unequal nx, ny on a non-square box; centers at nodes, cell midpoints,
    # off-grid and outside the box (one axis or both); the first windows
    # meet no grid row at all, or rows but no node of them
    g = HalfSpaceGrid(((-3.0, 5.0), (-2.0, 1.5)), (33, 20), 1e-3, 8.0, 4)
    p = g.points
    cell = g.cell
    centers = [np.array([[-4.0, 0.0], [0.0, 3.0], [6.0, 2.5], [g.axes[0][3], -2.5]])]
    radii = [np.array([0.5, 0.5, 0.2, 0.4])]
    mids = (p[:-21] + p[21:]) / 2.0
    for spots in (p, mids, rng.uniform([-4.0, -3.0], [6.0, 2.5], (2000, 2))):
        for r in (0.3 * cell, cell, 2.5 * cell, 1.0, 6.0, 20.0):
            centers.append(spots)
            radii.append(np.full(len(spots), r))
    # radii at a node's own float distance and one ulp either side, where
    # the searchsorted guess in a row lands one node off
    c_edge = rng.uniform([-4.0, -3.0], [6.0, 2.5], (6000, 2))
    r_edge = np.linalg.norm(p[rng.integers(0, g.n_spatial, 6000)] - c_edge, axis=1)
    centers += [c_edge] * 3
    radii += [r_edge, np.nextafter(r_edge, 0.0), np.nextafter(r_edge, 99.0)]
    centers, radii = np.concatenate(centers), np.concatenate(radii)
    win = _ball_windows(g, centers, radii)
    dense = _dense_windows(p, centers, radii)
    assert not dense[:4].any()
    _assert_node_sets(win, dense)
    assert np.array_equal(win.gather(np.ones(g.n_spatial)), dense.sum(axis=1))
    assert np.array_equal(win.scatter(np.ones(len(radii))), dense.sum(axis=0))
    # tent sums, split by window, with empty windows first
    caps = np.full((g.n_spatial, g.nt), 0.3 * cell)
    vals = rng.random((g.n_spatial, g.nt))
    sub = np.r_[0:4, rng.integers(4, len(radii), 200)]
    want = [vals[np.maximum(radii[i] - np.linalg.norm(p - centers[i], axis=1), 0.0)[:, None]
                 >= caps].sum() for i in sub]
    tents = _tent_sums(g, centers[sub], radii[sub], vals, caps)
    assert np.array_equal(tents, want)


def _dense_windows(points, centers, radii):
    """The dense predicate |y - c| < r, one row of nodes per ball (in
    blocks of balls, to bound the memory)."""
    return np.concatenate([np.linalg.norm(points - c[:, None, :], axis=-1) < r[:, None]
                           for c, r in zip(np.array_split(centers, 20),
                                           np.array_split(radii, 20))])


def _assert_node_sets(win, dense):
    """The ranges of win hold the nodes of the dense mask, each once."""
    lo, hi, window = win.ranges()
    nodes, at = _expand(lo, hi)
    got = np.zeros_like(dense)
    got[window[at], nodes] = True
    assert np.array_equal(got, dense)
    assert nodes.size == dense.sum()                   # no node twice


def test_ball_windows_in_1d_have_no_owner(rng):
    # a 1-D ball window is one range, so it has no owner, and its sums are
    # those of the same ranges with the identity owner, to the byte; the
    # balls come in pairs (runs of equal ranges) and some hold no node
    g = HalfSpaceGrid(((-8.0, 8.0),), (300,), 1e-3, 8.0, 4)
    centers = np.repeat(rng.uniform(-10.0, 10.0, (200, 1)), 2, axis=0)
    radii = np.repeat(rng.uniform(0.0, 3.0, 200), 2)
    win = _ball_windows(g, centers, radii)
    assert win.owner is None
    lo, hi, window = win.ranges()
    assert np.array_equal(window, np.arange(400))
    want_lo, want_hi = _window_bounds(g.axes[0], centers[:, 0], radii)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
    assert np.any(hi <= lo)
    owned = _Windows(g, lo, hi, np.arange(400))
    for values in (rng.random(300), rng.random((300, 3))):
        assert win.gather(values).tobytes() == owned.gather(values).tobytes()
    weights = rng.random(400)
    for op in (np.add, np.maximum):
        assert win.scatter(weights, op).tobytes() == owned.scatter(weights, op).tobytes()


@pytest.mark.parametrize("spec", [ConeSpec(1.0, 1.0), ConeSpec(0.5, 2.0),
                                  ConeSpec(2.0, 0.5)])
def test_area_matches_dense_reference_two_bumps(grid_small, spec):
    # amplitude ratio 1e8: a prefix-sum-difference scatter loses the small
    # bump's vertices to cancellation; nonnegative tree sums keep them
    f = _two_bumps(grid_small)
    for q in (1.0, 2.0, 3.0):
        want, want_sup = _dense_area(f, q, spec)
        got = area_S(f, q, spec).values
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(area_S(f, np.inf, spec).values, want_sup)


def _assert_cell_windows(win, g, ys, js, caps):
    """The windows of the cells (ys, js) are those of caps, the per-cell
    caps: in 1-D their ranges and node sets are _window_bounds of caps, with
    no owner; in 2-D their node sets are those of the dense predicate."""
    if g.n == 2:
        _assert_node_sets(win, _dense_windows(g.points, g.points[ys], caps))
        return
    assert win.owner is None
    lo, hi = _window_bounds(g.axes[0], g.points[ys, 0], caps)
    got_lo, got_hi, window = win.ranges()
    assert np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)
    assert np.array_equal(window, np.arange(len(ys)))
    nodes, at = _expand(got_lo, got_hi)
    want, want_at = _expand(lo, hi)
    assert np.array_equal(nodes, want) and np.array_equal(at, want_at)
    for w in np.unique(np.linspace(0, len(ys) - 1, 9).astype(int)) if ys.size else []:
        assert np.array_equal(win.nodes(w), np.arange(lo[w], hi[w]))


def _low_band(g, rng):
    """Random values on a random half of the cells with t below t_max/64:
    few breakpoints per row, so 1-D cone windows come from them."""
    vals = rng.random((g.n_spatial, g.nt)) * (rng.random((g.n_spatial, g.nt)) < 0.5)
    vals[:, g.t >= g.t_max / 64] = 0.0
    return vals


@pytest.mark.parametrize("box, nx", [(((-8.0, 8.0),), (1024,)),
                                    (((-4.0, 4.0), (-3.0, 5.0)), (48, 40))],
                         ids=["1d-1024", "2d-48x40"])
def test_cone_windows_take_the_caps_of_their_cells(box, nx, rng):
    # the caps at the nonzero cells only, the same floats as the whole grid's;
    # in 1-D on a sparse support (searched per cell) and a low band (from
    # row breakpoints)
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, 64 if len(nx) == 1 else 8)
    sparse = rng.random((g.n_spatial, g.nt)) * (rng.random((g.n_spatial, g.nt)) < 0.2)
    for vals in (sparse, _low_band(g, rng)) if g.n == 1 else (sparse,):
        for spec in (ConeSpec(1.0, 1.0), ConeSpec(0.5, 2.0), ConeSpec(2.0, 0.5)):
            ys, js = np.nonzero(vals)
            win = _cone_windows(g, spec, ys, js)
            assert ys.size > 0
            _assert_cell_windows(win, g, ys, js, cone_caps(g, spec)[ys, js])


@pytest.mark.parametrize("box, nx", [(((-8.0, 8.0),), (1024,)),
                                    (((-4.0, 4.0), (-3.0, 5.0)), (48, 40))],
                         ids=["1d-1024", "2d-48x40"])
def test_caps_from_grid_m_are_the_per_point_formula(box, nx, rng):
    # m(y) read from grid.m_y gives the floats of min(alpha t, beta m(y))
    # with m recomputed from each point's coordinates, on the whole grid,
    # and the cone windows of the cells are those of the per-point caps
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, 64 if len(nx) == 1 else 8)
    sparse = rng.random((g.n_spatial, g.nt)) * (rng.random((g.n_spatial, g.nt)) < 0.2)
    for vals in (sparse, _low_band(g, rng)) if g.n == 1 else (sparse,):
        for spec in (ConeSpec(1.0, 1.0), ConeSpec(0.5, 2.0), ConeSpec(2.0, np.inf)):
            a, b = spec.alpha, spec.beta
            whole = np.minimum(a * g.t, b * cutoff_m(g.points[:, None, :]))
            assert cone_caps(g, spec).tobytes() == whole.tobytes()
            ys, js = np.nonzero(vals)
            win = _cone_windows(g, spec, ys, js)
            cells = np.minimum(a * g.t[js], b * cutoff_m(g.points[ys]))
            _assert_cell_windows(win, g, ys, js, cells)


_CONE_SPECS = [ConeSpec(1.0, 1.0), ConeSpec(0.5, 2.0), ConeSpec(2.0, 0.5),
               ConeSpec(2.0, np.inf)]


def _supports(g, rng):
    """Random (whole grid, and a low band), single-row and box-edge supports."""
    whole = rng.random((g.n_spatial, g.nt)) * (rng.random((g.n_spatial, g.nt)) < 0.3)
    row = np.zeros((g.n_spatial, g.nt))
    row[g.n_spatial // 3, rng.random(g.nt) < 0.7] = 1.0
    row[g.n_spatial // 3, 0] = 2.0
    edge = np.zeros((g.n_spatial, g.nt))
    edge[0, :] = 1.0
    edge[-1, ::2] = 3.0
    return {"random": whole, "low_band": _low_band(g, rng), "single_row": row,
            "box_edge": edge}


@pytest.mark.parametrize("nx, nt", [(1024, 64), (300, 16), (2, 2)])
def test_cone_windows_from_breakpoints_match_the_per_cell_search(nx, nt, rng,
                                                                 monkeypatch):
    # both sides of the cost rule run: breakpoints where a row's widest
    # window is narrow next to its cells, the per-cell search where it is
    # wide (a whole random grid, beta = inf); a spy on _cone_ranges tells
    # which side a call took
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nt)
    ranged = []

    def spy(*args):
        ranged.append(True)
        return _cone_ranges(*args)

    monkeypatch.setattr(_kernels, "_cone_ranges", spy)
    branches = set()
    for spec in _CONE_SPECS:
        for vals in _supports(g, rng).values():
            ranged.clear()
            ys, js = np.nonzero(vals)
            win = _cone_windows(g, spec, ys, js)
            _assert_cell_windows(win, g, ys, js, spec.caps(g.m_y[ys], g.t[js]))
            if ys.size:
                branches.add(bool(ranged))
    assert branches == ({True} if nx == 2 else {True, False})
    if nx > 2:
        # a cap alpha t_j that equals a node distance on each side: the
        # window holds that node only from the next column on
        i = nx // 2
        for k in (i + 1, i - 1):
            d = abs(g.axes[0][k] - g.axes[0][i])
            alpha, j = next((a, j) for j in range(nt // 4, nt - 2)
                            for a in (d / g.t[j], np.nextafter(d / g.t[j], 0.0),
                                      np.nextafter(d / g.t[j], 1.0)) if a * g.t[j] == d)
            vals = np.zeros((g.n_spatial, g.nt))
            vals[i - 4:i + 5, :j + 2] = 1.0
            ranged.clear()
            ys, js = np.nonzero(vals)
            win = _cone_windows(g, ConeSpec(alpha, 4.0), ys, js)
            assert ranged
            at = np.flatnonzero((ys == i) & (js >= j - 1))[:3]
            assert [k in win.nodes(w) for w in at] == [False, False, True]
            _assert_cell_windows(win, g, ys, js, ConeSpec(alpha, 4.0).caps(g.m_y[ys], g.t[js]))


def _per_cell_windows(vals, g, spec):
    """The cone windows searched cell by cell at each cell's cap."""
    ys, js = np.nonzero(vals)
    return ys, js, _ball_windows(g, g.points[ys], spec.caps(g.m_y[ys], g.t[js]))


@pytest.mark.parametrize("nx, nt", [(1024, 64), (300, 16), (2, 2)])
def test_cone_functionals_match_the_per_cell_windows_to_the_byte(nx, nt, rng):
    # area_S at finite q and at q = inf, and the cone average, written out
    # on per-cell windows
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nt)
    A = (rng.random(g.n_spatial) < 0.5).astype(float)
    for spec in _CONE_SPECS:
        for vals in _supports(g, rng).values():
            f = GridFunction(g, vals)
            for q in (1.0, 2.0, 3.0):
                absq = np.abs(vals) ** q
                ys, js, win = _per_cell_windows(absq, g, spec)
                contrib = absq[ys, js] * g.gamma_y[ys] * g.wt[js] / win.gather(g.gamma_y)
                want = win.scatter(contrib) ** (1.0 / q)
                assert area_S(f, q, spec).values.tobytes() == want.tobytes()
            ys, js, win = _per_cell_windows(vals, g, spec)
            want = win.scatter(np.abs(vals)[ys, js], np.maximum)
            assert area_S(f, np.inf, spec).values.tobytes() == want.tobytes()
            den, in_A = win.gather(np.stack([g.gamma_y, g.gamma_y * A], axis=1)).T
            want = float(np.sum(vals[ys, js] * g.gamma_y[ys] * g.wt[js] * in_A / den))
            assert _cone_average_over(A, f, spec) == want


def _whole_grid_area(f, q, spec):
    """area_S as it ran on |f|^q (|f| at q = inf) over the whole grid, the
    cones those of its nonzero cells."""
    g = f.grid
    absq = np.abs(f.values) ** (1.0 if q == np.inf else q)
    ys, js = np.nonzero(absq)
    win = _cone_windows(g, spec, ys, js)
    if q == np.inf:
        return win.scatter(absq[ys, js], np.maximum)
    contrib = absq[ys, js] * g.gamma_y[ys] * g.wt[js] / win.gather(g.gamma_y)
    return win.scatter(contrib) ** (1.0 / q)


@pytest.mark.parametrize("box, nx, nt", [(((-8.0, 8.0),), (512,), 64),
                                         (((-4.0, 4.0), (-3.0, 5.0)), (32, 24), 8)],
                         ids=["1d-512", "2d-32x24"])
def test_area_functions_on_cells_match_the_whole_grid(box, nx, nt, rng):
    # the cells come from f, and a cell whose |f|^q underflows to 0 opens no
    # cone: the same windows, and so the same bytes, as |f|^q on the grid
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, nt)
    vals = random_bump(g, rng).values.copy()
    vals[::7] *= -1.0
    far = np.flatnonzero(vals.any(axis=1) == 0)
    vals[far[::5], 1::3] = 1e-200           # underflows at q >= 2
    vals[far[2::5], ::2] = -1e-300          # and at q = 1.5
    vals[far[4::5], 2::4] = -0.0
    f = GridFunction(g, vals)
    for spec in _CONE_SPECS:
        for q in (1.0, 1.5, 2.0, 3.0):
            if q > 1.0:
                assert np.count_nonzero(np.abs(vals) ** q) < np.count_nonzero(vals)
            want = _whole_grid_area(f, q, spec)
            assert area_S(f, q, spec).values.tobytes() == want.tobytes()
        want = _whole_grid_area(f, np.inf, spec)
        assert area_S(f, np.inf, spec).values.tobytes() == want.tobytes()


_APERTURE_SWEEP = [ConeSpec(a, b) for a in APERTURE_GRID for b in APERTURE_GRID]


@pytest.mark.parametrize("box, nx, nt", [(((-8.0, 8.0),), (512,), 64),
                                         (((-4.0, 4.0), (-3.0, 5.0)), (24, 20), 8)],
                         ids=["1d-512", "2d-24x20"])
def test_cone_area_of_many_specs_is_the_area_of_each(box, nx, nt, rng, monkeypatch):
    # the specs of one alpha share the windows and gamma-sums of their
    # largest beta (inf in one group): each S_q and S_inf is, to the byte,
    # the one-spec area's, and in 1-D those widest windows come from both
    # sides of the cost rule, the per-cell side on a support at large t only
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, nt)
    late = np.zeros((g.n_spatial, g.nt))
    late[rng.random(g.n_spatial) < 0.5, -3:] = 1.0 + rng.random(3)
    supports = {**_supports(g, rng), "late": late,
                "bump": random_bump(g, rng).values if g.n == 1 else bump_2d(g).values}
    groups = (_APERTURE_SWEEP,
              [ConeSpec(1.0, 0.5), ConeSpec(1.0, np.inf), ConeSpec(2.0, 1.0),
               ConeSpec(1.0, 2.0), ConeSpec(1.0, 0.5)])
    ranged, per_cell = [], []

    def spy(name, log):
        real = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *a: log.append(True) or real(*a))

    spy("_cone_ranges", ranged)
    spy("_ball_windows", per_cell)
    sides = set()
    for vals in supports.values():
        f = GridFunction(g, vals)
        ys, js = np.nonzero(vals)
        for specs in groups:
            for q in (1.0, 2.0, 3.0, np.inf):
                ranged.clear()
                per_cell.clear()
                got = _kernels._cone_area(g, tuple(specs), ys, js, vals[ys, js], q)
                sides |= {side for side, log in (("breakpoints", ranged),
                                                 ("per cell", per_cell)) if log}
                want = [area_S(f, q, s) for s in specs]
                assert [a.tobytes() for a in got] == [w.values.tobytes() for w in want]
    assert sides == ({"breakpoints", "per cell"} if g.n == 1 else {"per cell"})


def test_tent_norms_are_the_tent_norm_of_each_spec(grid_small):
    # the norm of each spec's own area function, and tent_norm spec by spec
    f = bump(grid_small)
    for pq in (ExponentPair(1.0, 2.0), ExponentPair(2.0, 1.0), ExponentPair(3.0, 3.0)):
        got = tent_norms(f, pq, _APERTURE_SWEEP)
        assert got == [lp_gamma_norm(area_S(f, pq.q, s), pq.p) for s in _APERTURE_SWEEP]
        assert got == [tent_norm(f, pq, s) for s in _APERTURE_SWEEP]
    assert tent_norms(GridFunction.zero(grid_small), ExponentPair(1.0, 2.0),
                      _APERTURE_SWEEP) == [0.0] * 9
    for pq in (ExponentPair(np.inf, 2.0), ExponentPair(1.0, np.inf)):
        with pytest.raises(ValueError) as want:
            tent_norm(f, pq, ConeSpec(1.0, 1.0))
        with pytest.raises(ValueError) as got:
            tent_norms(f, pq, _APERTURE_SWEEP)
        assert str(got.value) == str(want.value)


def test_a_cell_whose_power_underflows_opens_no_cone_where_gamma_does():
    # past |y| = 27 gamma_y is 0, so a cone there has gamma 0 in floats: a
    # cell whose |f|^q underflows to 0 must not divide by it
    g = HalfSpaceGrid(((-40.0, 40.0),), (512,), 1e-3, 8.0, 16)
    y = g.points[:, 0]
    vals = np.where(np.abs(y)[:, None] < 1.0, 1.0, 0.0) * np.ones(g.nt)
    vals[y > 35.0, ::3] = 1e-200
    f, spec = GridFunction(g, vals), ConeSpec(1.0, 1.0)
    for q in (2.0, 3.0):
        assert area_S(f, q, spec).values.tobytes() == _whole_grid_area(f, q, spec).tobytes()
    with pytest.raises(FloatingPointError, match="underflows"):
        area_S(f, 1.0, spec)


def test_area_S_takes_m_from_the_grid(grid_small, monkeypatch):
    # the grid computes m(y) once, when first asked; area_S reads it there
    calls = []
    real = cutoff_m

    def counting(x):
        calls.append(x)
        return real(x)

    f = bump(grid_small)
    grid_small.m_y
    for module in ("geometry", "grid", "functionals"):
        monkeypatch.setattr(f"gausstent.{module}.cutoff_m", counting)
    area_S(f, 2.0, ConeSpec(1.0, 1.0))
    assert calls == []


def test_area_zero_function_is_zero_everywhere(grid_small):
    zero = GridFunction.zero(grid_small)
    spec = ConeSpec(1.0, 1.0)
    assert np.all(area_S(zero, 2.0, spec).values == 0.0)
    assert np.all(area_S(zero, np.inf, spec).values == 0.0)


# -- 2-D grids (row ranges of the window layer) ----------------------------

@pytest.fixture(scope="module")
def grid_2d():
    return HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (16, 16), 1e-3, 8.0, 8)


def test_area_2d_matches_dense_reference(grid_2d):
    f = bump_2d(grid_2d)
    spec = ConeSpec(1.0, 1.0)
    want, want_sup = _dense_area(f, 2.0, spec)
    got = area_S(f, 2.0, spec).values
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(area_S(f, np.inf, spec).values, want_sup)


def test_area_2d_tpp_identity_and_duality_layer0(grid_2d, rng):
    g = grid_2d
    spec = ConeSpec(1.0, 1.0)
    vals = rng.random((g.n_spatial, g.nt))
    f = GridFunction(g, vals)
    lhs = float(np.sum(area_S(f, 2.0, spec).values ** 2 * g.gamma_y))
    assert lhs == pytest.approx(halfspace_integral(GridFunction(g, vals ** 2)), rel=1e-12)
    assert check_duality_pq(f, bump_2d(g), 2.0, 2.0, spec)["identity_ok"]


def _truncated(f, q, spec, h):
    """S_{q,h} f: the area function over the truncated cone {t < h}."""
    return area_S(GridFunction(f.grid, np.where(f.grid.t[None, :] < h, f.values, 0.0)),
                  q, spec)


def test_area_truncated_monotone(grid_small):
    f = bump(grid_small)
    spec = ConeSpec(1.0, 1.0)
    s1 = _truncated(f, 2.0, spec, 0.05).values
    s2 = _truncated(f, 2.0, spec, 1.0).values
    full = area_S(f, 2.0, spec).values
    assert np.all(s1 <= s2 + 1e-15)
    assert np.all(s2 <= full + 1e-15)


def test_quadrature_convergence_exact_value():
    # f(y,t) = e^{y^2}/(1+y^2) * sqrt(t/(1+t)) has the exact T^{2,2} norm
    #   ||f||^2 = int_{-8}^{8} dy/(1+y^2) * int dt/(1+t)
    #           = 2 atan(8) * log((1+tmax)/(1+tmin))
    def make(nx, nt):
        g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nt)
        y, t = g.points[:, 0], g.t
        vals = np.sqrt(np.exp(y * y)[:, None] / (1 + y * y)[:, None]
                       * (t / (1 + t))[None, :])
        return tent_norm(GridFunction(g, vals), ExponentPair(2.0, 2.0),
                         ConeSpec(1.0, 1.0)) ** 2

    exact = 2 * np.arctan(8.0) * np.log(9.0 / 1.001)
    err_c = abs(make(128, 32) - exact)
    err_f = abs(make(512, 128) - exact)
    assert err_f < err_c / 3.0
    assert err_f < 5e-3 * exact


# -- Carleson functional ---------------------------------------------------

def test_carleson_C_single_ball_value(grid_small):
    g = grid_small
    f = bump(g)
    B = Ball((0.5,), 0.4)
    d = BallDictionary([B.center], [B.radius])
    C = carleson_C(f, 2.0, ConeSpec(1.0, 1.0), d)
    caps = cone_caps(g, ConeSpec(1.0, 1.0))
    depth = np.maximum(B.radius - np.abs(g.points[:, 0] - B.center[0]), 0.0)
    tent = depth[:, None] >= caps
    from gausstent.geometry import gamma_ball
    want = (np.sum(f.values ** 2 * g.gamma_y[:, None] * g.wt[None, :] * tent)
            / gamma_ball(B)) ** 0.5
    admit = np.abs(g.points[:, 0] - 0.5) < min(1.0 * 0.4, 1.0)
    assert np.all(C.values[~admit] == 0.0)
    assert C.values[admit].max() == pytest.approx(want, rel=1e-12)


def test_carleson_C_where_gamma_underflows():
    # on [-64, 64] the far dictionary balls have gamma(B) = 0 in floats: a
    # central bump leaves their tents empty and they read 0, but a nonzero
    # value out there adds no mass (gamma_y is 0) and must not read 0
    g = HalfSpaceGrid(((-64.0, 64.0),), (256,), 1e-3, 8.0, 16)
    spec = ConeSpec(1.0, 1.0)
    d = default_dictionary(g, 1.0)
    y = g.points[:, 0]
    far = np.abs(d.centers[:, 0]) > 30.0
    C = carleson_C(bump(g), 2.0, spec, d)
    assert np.all(np.isfinite(C.values)) and C.values.max() > 0.0
    assert np.all(C.values[np.abs(y) > 30.0] == 0.0)
    assert carleson_C(bump(g), 2.0, spec, BallDictionary(d.centers[far], d.radii[far])
                      ).values.max() == 0.0
    for support in (np.abs(y) > 40.0, np.ones(g.n_spatial, dtype=bool)):
        f = GridFunction(g, np.repeat(support[:, None], g.nt, axis=1) * 1.0)
        with pytest.raises(FloatingPointError, match="underflows past"):
            carleson_C(f, 2.0, spec, d)


def test_carleson_C_exponent_range(grid_small):
    f = bump(grid_small)
    d = default_dictionary(grid_small, 1.0)
    with pytest.raises(ValueError):
        carleson_C(f, 1.0, ConeSpec(1.0, 1.0), d)


# -- ball dictionaries against the per-ball loops they replaced -----------

def _loop_carleson_C(f, q, alpha, beta, d):
    g = f.grid
    caps = cone_caps(g, ConeSpec(alpha, beta))
    weighted = np.abs(f.values) ** q * g.gamma_y[:, None] * g.wt[None, :]
    out = np.zeros(g.n_spatial)
    for c, r in zip(d.centers, d.radii):
        dist_c = np.linalg.norm(g.points - c, axis=1)
        admit = dist_c < min(alpha * r, beta * cutoff_m(c))
        if not admit.any():
            continue
        tent = np.maximum(r - dist_c, 0.0)[:, None] >= caps
        val = (weighted[tent].sum() / gamma_ball(Ball(tuple(c), r))) ** (1.0 / q)
        np.maximum(out, np.where(admit, val, 0.0), out=out)
    return out


def _loop_containing_density_points(F, eta, beta, d):
    g = F.grid
    gw = g.gamma_y
    ok = np.ones(g.n_spatial, dtype=bool)
    for c, r in zip(d.centers, d.radii):
        if not is_admissible(c, r, beta):
            continue
        inside = np.linalg.norm(g.points - c, axis=1) < r
        if inside.any() and (gw * F.mask)[inside].sum() < eta * gw[inside].sum():
            ok &= ~inside
    return ok


def _dictionaries(grid, beta, rng):
    """The default node-centered dictionary, and one of random off-grid
    centers (some outside the box) with radii up to beta m(c)."""
    centers = rng.uniform(-8.5, 8.5, size=(150, grid.n))
    radii = rng.uniform(0.01, 1.0, size=150) * beta * cutoff_m(centers)
    return default_dictionary(grid, beta), BallDictionary(centers, radii)


@pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
def test_carleson_C_matches_per_ball_loop(request, grid_name, rng):
    g = request.getfixturevalue(grid_name)
    f = bump(g) if g.n == 1 else bump_2d(g)
    for beta in (0.5, 1.0, 2.0):
        for d in _dictionaries(g, beta, rng):
            for q, alpha in ((2.0, 1.0), (3.0, 0.5)):
                want = _loop_carleson_C(f, q, alpha, beta, d)
                assert np.array_equal(carleson_C(f, q, ConeSpec(alpha, beta), d).values, want)


@pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
def test_containing_density_points_matches_per_ball_loop(request, grid_name, rng):
    g = request.getfixturevalue(grid_name)
    for beta in (0.5, 1.0, 2.0):
        F = RegionMask(g, rng.random(g.n_spatial) > 0.3)
        for d in _dictionaries(g, beta, rng):
            for eta in (0.3, 0.7):
                want = _loop_containing_density_points(F, eta, beta, d)
                got = containing_density_points(F, eta, beta, d).mask
                assert np.array_equal(got, want)


# -- norms -----------------------------------------------------------------

def test_tent_norm_dispatch(grid_small):
    f = bump(grid_small)
    d = default_dictionary(grid_small, 1.0)
    spec = ConeSpec(1.0, 1.0)
    assert tent_norm(f, ExponentPair(2.0, 2.0), spec) > 0
    assert tent_norm(f, ExponentPair(np.inf, 2.0), spec, d) > 0
    assert tent_norm(f, ExponentPair(1.0, np.inf), spec,
                     continuous_intent=True) > 0
    with pytest.raises(ValueError):
        tent_norm(f, ExponentPair(np.inf, 2.0), spec)     # needs dict
    with pytest.raises(ValueError):
        tent_norm(f, ExponentPair(1.0, np.inf), spec)     # needs intent


def test_tent_norm_zero(grid_small):
    assert tent_norm(GridFunction.zero(grid_small), ExponentPair(1.0, 2.0),
                     ConeSpec(1.0, 1.0)) == 0.0


# -- the centered ladder ----------------------------------------------------

def test_centered_ladder_blocks_are_one_gather(rng):
    # wide 2-D windows and many columns: the rungs are gathered in several
    # column blocks, whose sums are those of one gather of every column
    g = HalfSpaceGrid(((-4.0, 4.0),) * 2, (48, 48), 1e-3, 8.0, 4)
    F = rng.random((g.n_spatial, 60)) < 0.5
    sums = np.column_stack([g.gamma_y[:, None] * F, g.gamma_y])
    base = 6.0 * g.m_y
    assert len(_ball_windows(g, g.points, base).ranges()[0]) * sums.shape[1] > 1 << 21
    for k, (num, den) in enumerate(_centered_ladder(g, 6.0, F)):
        whole = _ball_windows(g, g.points, base * 2.0 ** (-k)).gather(sums)
        assert num.tobytes() == whole[:, :-1].tobytes()
        assert den.tobytes() == whole[:, -1].tobytes()


# -- stopping time ---------------------------------------------------------

def test_stopping_time_sentinels(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    zero = GridFunction.zero(g)
    d = default_dictionary(g, 1.0)
    cq = carleson_C(zero, 2.0, spec, d)
    h = stopping_time(zero, 2.0, spec, 2.0, [0.1, 1.0], cq)
    assert np.all(h.values == np.inf)       # zero function: every height passes
    with pytest.raises(ValueError):
        stopping_time(zero, 2.0, spec, 2.0, [], cq)


def test_stopping_time_picks_largest_passing(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    f = bump(g)
    d = default_dictionary(g, 1.0)
    cq = carleson_C(f, 2.0, spec, d)
    ladder = [0.01, 0.1, 1.0, 8.0]
    h = stopping_time(f, 2.0, spec, 2.0, ladder, cq)
    bound = 2.0 * cq.values
    finite = np.isfinite(h.values) & (h.values > 0)
    for i in np.nonzero(finite)[0][:20]:
        hv = h.values[i]
        assert _truncated(f, 2.0, spec, hv).values[i] <= bound[i]
        nxt = [v for v in ladder if v > hv]
        if nxt:
            assert _truncated(f, 2.0, spec, nxt[0]).values[i] > bound[i]
