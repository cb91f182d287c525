import numpy as np
import pytest

from gausstent.geometry import (
    Ball, ConeSpec, cutoff_m, gamma_ball, is_admissible,
)
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, RegionMask, SpatialFunction,
    halfspace_integral, lp_gamma_norm,
)
from gausstent.functionals import (
    BallDictionary, ExponentPair, _Windows, _centered_ladder, _expand,
    _window_bounds, area_S,
    area_S_sup, area_S_truncated, carleson_C, cone_caps, default_dictionary,
    maximal_centered, maximal_noncentered, stopping_time, tent_norm,
)
from gausstent.duality import check_duality_pq
from gausstent.whitney import containing_density_points


def _bump(grid, y0=0.5, t0=0.1, wy=0.4):
    y = grid.points[:, 0]
    vals = np.exp(-((y[:, None] - y0) / wy) ** 2) \
        * np.exp(-np.log(grid.t[None, :] / t0) ** 2)
    vals[np.abs(y - y0) > 2.5 * wy, :] = 0.0
    return GridFunction(grid, vals)


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
    sub = d.admissible(0.5)
    assert all(is_admissible(Ball(tuple(c), r), 0.5)
               for c, r in zip(sub.centers, sub.radii))


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
    f = _bump(g)
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
        area_S(f, np.inf, ConeSpec(1.0, 1.0))


def test_area_S_zero_and_monotone_aperture(grid_small):
    g = grid_small
    assert np.all(area_S(GridFunction.zero(g), 2.0, ConeSpec(1.0, 1.0)).values == 0.0)
    f = _bump(g)
    norm_small = lp_gamma_norm(area_S(f, 2.0, ConeSpec(0.5, 1.0)), 2)
    norm_large = lp_gamma_norm(area_S(f, 2.0, ConeSpec(2.0, 1.0)), 2)
    # L^2 norms agree exactly (the identity above); L^1 norms differ
    assert norm_small == pytest.approx(norm_large, rel=1e-12)


def test_area_sup_is_cone_sup(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    f = _bump(g)
    S = area_S_sup(f, spec)
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
    win = _Windows(g, centers, radii)
    dense = np.concatenate([np.linalg.norm(p - c[:, None, :], axis=-1) < r[:, None]
                            for c, r in zip(np.array_split(centers, 20),
                                            np.array_split(radii, 20))])
    assert not dense[:4].any()
    nodes, at = _expand(win.lo[win.run_of], win.hi[win.run_of])
    got = np.zeros_like(dense)
    got[win.owner[at], nodes] = True
    assert np.array_equal(got, dense)
    assert nodes.size == dense.sum()                   # no node twice
    assert np.array_equal(win.gather(np.ones(g.n_spatial)), dense.sum(axis=1))
    assert np.array_equal(win.scatter(np.ones(len(radii))), dense.sum(axis=0))
    # tent sums, split by window, with empty windows first
    caps = np.full((g.n_spatial, g.nt), 0.3 * cell)
    vals = rng.random((g.n_spatial, g.nt))
    sub = np.r_[0:4, rng.integers(4, len(radii), 200)]
    want = [vals[np.maximum(radii[i] - np.linalg.norm(p - centers[i], axis=1), 0.0)[:, None]
                 >= caps].sum() for i in sub]
    tents = _Windows(g, centers[sub], radii[sub]).tent_sums(vals, caps)
    assert np.array_equal(tents, want)


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
    assert np.array_equal(area_S_sup(f, spec).values, want_sup)


def test_area_zero_function_is_zero_everywhere(grid_small):
    zero = GridFunction.zero(grid_small)
    spec = ConeSpec(1.0, 1.0)
    assert np.all(area_S(zero, 2.0, spec).values == 0.0)
    assert np.all(area_S_sup(zero, spec).values == 0.0)


# -- 2-D grids (row ranges of the window layer) ----------------------------

@pytest.fixture(scope="module")
def grid_2d():
    return HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (16, 16), 1e-3, 8.0, 8)


def _bump_2d(grid):
    p = grid.points
    r2 = np.sum((p - np.array([0.5, -1.0])) ** 2, axis=1)
    vals = np.exp(-r2 / 2.0)[:, None] * np.exp(-np.log(grid.t[None, :] / 0.5) ** 2)
    vals[r2 > 9.0, :] = 0.0
    return GridFunction(grid, vals)


def test_area_2d_matches_dense_reference(grid_2d):
    f = _bump_2d(grid_2d)
    spec = ConeSpec(1.0, 1.0)
    want, want_sup = _dense_area(f, 2.0, spec)
    got = area_S(f, 2.0, spec).values
    assert np.array_equal(got == 0.0, want == 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.array_equal(area_S_sup(f, spec).values, want_sup)


def test_area_2d_tpp_identity_and_duality_layer0(grid_2d, rng):
    g = grid_2d
    spec = ConeSpec(1.0, 1.0)
    vals = rng.random((g.n_spatial, g.nt))
    f = GridFunction(g, vals)
    lhs = float(np.sum(area_S(f, 2.0, spec).values ** 2 * g.gamma_y))
    assert lhs == pytest.approx(halfspace_integral(GridFunction(g, vals ** 2)), rel=1e-12)
    assert check_duality_pq(f, _bump_2d(g), 2.0, 2.0, spec)["identity_ok"]


def test_area_truncated_monotone(grid_small):
    f = _bump(grid_small)
    spec = ConeSpec(1.0, 1.0)
    s1 = area_S_truncated(f, 2.0, spec, 0.05).values
    s2 = area_S_truncated(f, 2.0, spec, 1.0).values
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
        return tent_norm(GridFunction(g, vals), ExponentPair(2.0, 2.0), 1.0, 1.0) ** 2

    exact = 2 * np.arctan(8.0) * np.log(9.0 / 1.001)
    err_c = abs(make(128, 32) - exact)
    err_f = abs(make(512, 128) - exact)
    assert err_f < err_c / 3.0
    assert err_f < 5e-3 * exact


# -- Carleson functional ---------------------------------------------------

def test_carleson_C_single_ball_value(grid_small):
    g = grid_small
    f = _bump(g)
    B = Ball((0.5,), 0.4)
    d = BallDictionary([B.center], [B.radius])
    C = carleson_C(f, 2.0, 1.0, 1.0, d)
    caps = cone_caps(g, ConeSpec(1.0, 1.0))
    depth = np.maximum(B.radius - np.abs(g.points[:, 0] - B.center[0]), 0.0)
    tent = depth[:, None] >= caps
    from gausstent.geometry import gamma_ball
    want = (np.sum(f.values ** 2 * g.gamma_y[:, None] * g.wt[None, :] * tent)
            / gamma_ball(B)) ** 0.5
    admit = np.abs(g.points[:, 0] - 0.5) < min(1.0 * 0.4, 1.0)
    assert np.all(C.values[~admit] == 0.0)
    assert C.values[admit].max() == pytest.approx(want, rel=1e-12)


def test_carleson_C_exponent_range(grid_small):
    f = _bump(grid_small)
    d = default_dictionary(grid_small, 1.0)
    with pytest.raises(ValueError):
        carleson_C(f, 1.0, 1.0, 1.0, d)


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


def _loop_maximal_noncentered(vals, grid, level, d):
    gw = grid.gamma_y
    out = np.zeros(grid.n_spatial)
    for c, r in zip(d.centers, d.radii):
        if not is_admissible(Ball(tuple(c), r), level):
            continue
        inside = np.linalg.norm(grid.points - c, axis=1) < r
        if not inside.any():
            continue
        avg = (np.abs(vals[inside]) * gw[inside]).sum() / gw[inside].sum()
        np.maximum(out, np.where(inside, avg, 0.0), out=out)
    return out


def _loop_containing_density_points(F, eta, beta, d):
    g = F.grid
    gw = g.gamma_y
    ok = np.ones(g.n_spatial, dtype=bool)
    for c, r in zip(d.centers, d.radii):
        if not is_admissible(Ball(tuple(c), r), beta):
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
    f = _bump(g) if g.n == 1 else _bump_2d(g)
    for beta in (0.5, 1.0, 2.0):
        for d in _dictionaries(g, beta, rng):
            for q, alpha in ((2.0, 1.0), (3.0, 0.5)):
                want = _loop_carleson_C(f, q, alpha, beta, d)
                assert np.array_equal(carleson_C(f, q, alpha, beta, d).values, want)


@pytest.mark.parametrize("grid_name", ["grid_small", "grid_2d"])
def test_maximal_noncentered_matches_per_ball_loop(request, grid_name, rng):
    g = request.getfixturevalue(grid_name)
    vals = rng.random(g.n_spatial) * (rng.random(g.n_spatial) > 0.3)
    ones = SpatialFunction(g, np.ones(g.n_spatial))
    for beta in (0.5, 1.0, 2.0):
        for d in _dictionaries(g, beta, rng):
            want = _loop_maximal_noncentered(vals, g, beta, d)
            got = maximal_noncentered(SpatialFunction(g, vals), beta, d).values
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)
            M1 = maximal_noncentered(ones, beta, d).values
            assert np.array_equal(M1 == 0.0, _loop_maximal_noncentered(
                ones.values, g, beta, d) == 0.0)
            assert np.all(M1[M1 != 0.0] == 1.0)


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
    f = _bump(grid_small)
    d = default_dictionary(grid_small, 1.0)
    assert tent_norm(f, ExponentPair(2.0, 2.0), 1.0, 1.0) > 0
    assert tent_norm(f, ExponentPair(np.inf, 2.0), 1.0, 1.0, d) > 0
    assert tent_norm(f, ExponentPair(1.0, np.inf), 1.0, 1.0,
                     continuous_intent=True) > 0
    with pytest.raises(ValueError):
        tent_norm(f, ExponentPair(np.inf, 2.0), 1.0, 1.0)     # needs dict
    with pytest.raises(ValueError):
        tent_norm(f, ExponentPair(1.0, np.inf), 1.0, 1.0)     # needs intent


def test_tent_norm_zero(grid_small):
    assert tent_norm(GridFunction.zero(grid_small), ExponentPair(1.0, 2.0),
                     1.0, 1.0) == 0.0


# -- maximal functions -----------------------------------------------------

def test_maximal_of_one_is_one(grid_small):
    ones = SpatialFunction(grid_small, np.ones(grid_small.n_spatial))
    d = default_dictionary(grid_small, 1.0)
    M = maximal_noncentered(ones, 1.0, d)
    covered = M.values > 0
    assert covered.any()
    assert np.all(M.values[covered] == 1.0)
    Mc = maximal_centered(ones, 1.0)
    assert np.allclose(Mc.values, 1.0)


def test_maximal_dominates_function_at_small_radii(grid_small, rng):
    vals = rng.random(grid_small.n_spatial)
    Mc = maximal_centered(SpatialFunction(grid_small, vals), 1.0)
    # the deepest ladder radius still holds >= 1 node, so M >= a local avg > 0
    assert np.all(Mc.values > 0)


def _maximal_centered_loop(g: SpatialFunction, level: float) -> np.ndarray:
    """The rung loop maximal_centered ran on its own, one window set per
    rung, before the centered ladder was shared with the density points."""
    grid = g.grid
    gw = grid.gamma_y
    sums = np.stack([np.abs(g.values) * gw, gw], axis=1)
    out = np.zeros(grid.n_spatial)
    base = level * grid.m_y
    for k in range(7):
        num, den = _Windows(grid, grid.points, base * 2.0 ** (-k)).gather(sums).T
        np.maximum(out, num / den, out=out)
    return out


def test_centered_ladder_blocks_are_one_gather(rng):
    # wide 2-D windows and many columns: the rungs are gathered in several
    # column blocks, whose sums are those of one gather of every column
    g = HalfSpaceGrid(((-4.0, 4.0),) * 2, (48, 48), 1e-3, 8.0, 4)
    F = rng.random((g.n_spatial, 60)) < 0.5
    sums = np.column_stack([g.gamma_y[:, None] * F, g.gamma_y])
    base = 6.0 * g.m_y
    assert len(_Windows(g, g.points, base).owner) * sums.shape[1] > 1 << 21
    for k, (num, den) in enumerate(_centered_ladder(g, 6.0, F)):
        whole = _Windows(g, g.points, base * 2.0 ** (-k)).gather(sums)
        assert num.tobytes() == whole[:, :-1].tobytes()
        assert den.tobytes() == whole[:, -1].tobytes()


@pytest.mark.parametrize("grid", [
    HalfSpaceGrid(((-8.0, 8.0),), (512,), 1e-3, 8.0, 4),
    HalfSpaceGrid(((-8.0, 8.0),) * 2, (32, 32), 1e-3, 8.0, 4),
    HalfSpaceGrid(((-4.0, 4.0),) * 2, (48, 48), 1e-3, 8.0, 4),
], ids=["1d-512", "2d-32", "2d-48"])
def test_maximal_centered_matches_the_rung_loop(grid, rng):
    # in 2-D the windows span several grid rows
    for level in (0.5, 2.0, 6.0):
        vals = rng.normal(size=grid.n_spatial) * (rng.random(grid.n_spatial) < 0.5)
        g = SpatialFunction(grid, vals)
        assert maximal_centered(g, level).values.tobytes() \
            == _maximal_centered_loop(g, level).tobytes()


# -- stopping time ---------------------------------------------------------

def test_stopping_time_sentinels(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    zero = GridFunction.zero(g)
    d = default_dictionary(g, 1.0)
    cq = carleson_C(zero, 2.0, 1.0, 1.0, d)
    h = stopping_time(zero, 2.0, spec, 2.0, [0.1, 1.0], cq)
    assert np.all(h.values == np.inf)       # zero function: every height passes
    with pytest.raises(ValueError):
        stopping_time(zero, 2.0, spec, 2.0, [], cq)


def test_stopping_time_picks_largest_passing(grid_small):
    g = grid_small
    spec = ConeSpec(1.0, 1.0)
    f = _bump(g)
    d = default_dictionary(g, 1.0)
    cq = carleson_C(f, 2.0, 1.0, 1.0, d)
    ladder = [0.01, 0.1, 1.0, 8.0]
    h = stopping_time(f, 2.0, spec, 2.0, ladder, cq)
    bound = 2.0 * cq.values
    finite = np.isfinite(h.values) & (h.values > 0)
    for i in np.nonzero(finite)[0][:20]:
        hv = h.values[i]
        assert area_S_truncated(f, 2.0, spec, hv).values[i] <= bound[i]
        nxt = [v for v in ladder if v > hv]
        if nxt:
            assert area_S_truncated(f, 2.0, spec, nxt[0]).values[i] > bound[i]
