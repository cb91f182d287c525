import numpy as np
import pytest

from gausstent import atomic
from gausstent.families import random_bump
from gausstent.duality import measured_K_beta
from gausstent._kernels import _C_OVERLAP, _distance_rows, _gamma_balls
from gausstent.geometry import ConeSpec
from gausstent.grid import GridFunction, HalfSpaceGrid, RegionMask
from gausstent.functionals import BallDictionary, cone_caps, default_dictionary
from gausstent.whitney import (
    _audit_cubes, _box_base_level, _edt, _shrunken_disjoint, complement_distance,
    containing_density_points, density_inequality_check,
    density_points, doubling_constant, etabar_from_doubling, reverse_fubini_check,
    tent_mask, whitney_balls, whitney_cubes,
)


def _interval_mask(grid, lo, hi):
    y = grid.points[:, 0]
    return RegionMask(grid, (lo < y) & (y < hi))


# -- distance transforms ---------------------------------------------------

def test_complement_distance_bruteforce(grid_small, rng):
    O = RegionMask(grid_small, rng.random(grid_small.n_spatial) > 0.4)
    d = complement_distance(O)
    y = grid_small.points[:, 0]
    comp = ~O.mask
    # brute force against the complement nodes; the box exterior is not O^c
    for i in range(0, grid_small.n_spatial, 7):
        if not O.mask[i]:
            assert d[i] == 0.0
            continue
        want = np.abs(y[comp] - y[i]).min()
        assert d[i] == pytest.approx(want, abs=1e-12)


def test_complement_distance_of_the_whole_box_is_inf(grid_small):
    O = RegionMask(grid_small, np.ones(grid_small.n_spatial, bool))
    assert np.all(np.isinf(complement_distance(O)))


def _scipy_distances(O):
    """dist(x, O^c) and dist(x, O) by scipy's EDT, the oracle."""
    from scipy.ndimage import distance_transform_edt

    g = O.grid
    shaped = O.mask.reshape(g.nx)
    # padded with O: the box exterior is not part of O^c
    padded = np.pad(shaped, 1, constant_values=True)
    inner = tuple(slice(1, -1) for _ in range(g.n))
    comp = distance_transform_edt(padded, sampling=g.spacing)[inner].ravel()
    if O.mask.all():
        comp[:] = np.inf    # scipy's EDT is undefined without background
    to_set = distance_transform_edt(~shaped, sampling=g.spacing).ravel()
    return comp, to_set


def _assert_distances_match_scipy(O):
    comp, to_set = _scipy_distances(O)
    assert np.array_equal(complement_distance(O), comp)
    if O.mask.any():
        # dist(x, O) is the distance to the complement of ~O
        assert np.array_equal(complement_distance(RegionMask(O.grid, ~O.mask)), to_set)


def _run_mask(rng, size):
    """Alternating runs of random lengths, starting with either value."""
    lengths = rng.integers(1, max(2, size // 4), size)
    values = np.arange(lengths.size) % 2 == rng.integers(2)
    return np.repeat(values, lengths)[:size]


def test_distances_match_scipy_1d():
    rng = np.random.default_rng(7)
    for trial in range(300):
        size = int(rng.integers(8, 3001))
        g = HalfSpaceGrid(((-8.0, 8.0),), (size,), 1e-3, 8.0, 4)
        if trial % 2:
            mask = _run_mask(rng, size)
        else:
            mask = rng.random(size) < rng.uniform(0.05, 0.95)
        _assert_distances_match_scipy(RegionMask(g, mask))


def test_distances_match_scipy_2d():
    rng = np.random.default_rng(8)
    for trial in range(80):
        nx, ny = (int(v) for v in rng.integers(3, 70, 2))
        g = HalfSpaceGrid(((-8.0, 8.0), (-4.0, 4.0)), (nx, ny), 1e-3, 8.0, 4)
        kind = trial % 4
        if kind == 0:       # scattered
            mask = rng.random(g.n_spatial) < rng.uniform(0.05, 0.95)
        elif kind == 1:     # a rectangle touching the box edge
            mask = np.zeros(g.nx, bool)
            mask[:rng.integers(1, nx + 1), rng.integers(0, ny):] = True
            mask = mask.ravel()
        elif kind == 2:     # a single-node complement
            mask = np.ones(g.n_spatial, bool)
            mask[rng.integers(g.n_spatial)] = False
        else:               # a single node
            mask = np.zeros(g.n_spatial, bool)
            mask[rng.integers(g.n_spatial)] = True
        _assert_distances_match_scipy(RegionMask(g, mask))


# -- tents over open sets --------------------------------------------------

def test_tent_mask_interval(grid_small):
    g = grid_small
    O = _interval_mask(g, -1.0, 1.0)
    caps = cone_caps(g, ConeSpec(1.0, 1.0))
    T = tent_mask(O, caps)
    # center of the interval: included up to depth/alpha heights
    i = g.nearest_spatial_index(0.0)
    assert T[i, g.nearest_t_index(0.5)]
    # outside the interval: excluded at every height
    j = g.nearest_spatial_index(3.0)
    assert not T[j].any()
    # shrinking the aperture weakens the depth requirement: larger tent
    T2 = tent_mask(O, 0.5 * caps)
    assert np.all(T <= T2)


def test_region_R_contains_tent_of_complement_vertices(grid_small):
    g = grid_small
    F = _interval_mask(g, -1.0, 1.0)
    R = ~tent_mask(RegionMask(g, ~F.mask), cone_caps(g, ConeSpec(1.0, 1.0)))
    # R is the cone-union over F: near a vertex of F, small t nodes included
    i = g.nearest_spatial_index(0.0)
    assert R[i, 0]
    far = g.nearest_spatial_index(6.0)
    assert not R[far].any()


@pytest.mark.parametrize("n", [1, 2])
def test_tents_of_the_empty_set_are_empty(n):
    # every cap is positive, so no (y, t) lies in either tent of the empty
    # set; the decompositions rely on this instead of special-casing it
    g = HalfSpaceGrid(((-8.0, 8.0),) * n, (64,) * n, 1e-3, 8.0, 16)
    empty = RegionMask(g, np.zeros(g.n_spatial, bool))
    for shrink in (1.0, 0.5):
        caps = shrink * cone_caps(g, ConeSpec(1.0, 1.0))
        T = tent_mask(empty, caps)
        R = ~tent_mask(RegionMask(g, ~empty.mask), caps)
        assert T.shape == R.shape == (g.n_spatial, g.nt)
        assert not T.any() and not R.any()


def _region_R_by_set_distance(F, alpha, beta, shrink):
    """The union of cones with vertices in F as it was computed before it
    became the complement of a tent: nodes with dist(y, F) < cap."""
    g = F.grid
    caps = shrink * cone_caps(g, ConeSpec(alpha, beta))
    d = _edt(F.mask.reshape(g.nx), g.spacing).ravel()
    return d[:, None] < caps


@pytest.mark.parametrize("n", [1, 2])
def test_region_R_is_the_complement_of_the_tent_over_F_complement(n):
    # R(F) = complement of T(F^c): the same EDT input and the same caps, so
    # the same cells, on scattered sets, runs, and the empty and full sets
    rng = np.random.default_rng(20 + n)
    for trial in range(40):
        size = int(rng.integers(8, 600 if n == 1 else 40))
        g = HalfSpaceGrid(((-8.0, 8.0),) * n, (size,) * n, 1e-3, 8.0, 8)
        kind = trial % 4
        if kind == 0:
            mask = rng.random(g.n_spatial) < rng.uniform(0.05, 0.95)
        elif kind == 1:
            mask = _run_mask(rng, g.n_spatial)
        else:
            mask = np.full(g.n_spatial, kind == 3)
        F = RegionMask(g, mask)
        alpha, beta = rng.choice([0.5, 1.0, 2.0], 2)
        for shrink in (1.0, 0.5):
            caps = shrink * cone_caps(g, ConeSpec(alpha, beta))
            R = ~tent_mask(RegionMask(g, ~F.mask), caps)
            assert np.array_equal(R, _region_R_by_set_distance(F, alpha, beta, shrink))


# -- density points --------------------------------------------------------

def test_density_points_monotone_in_eta(grid_small):
    A = _interval_mask(grid_small, -2.0, 2.0)
    lo = density_points(A, 0.5, 1.0)
    hi = density_points(A, 0.95, 1.0)
    assert np.all(hi.mask <= lo.mask)
    # deep interior points are density points at any eta
    assert hi.mask[grid_small.nearest_spatial_index(0.0)]


def test_density_points_of_full_set(grid_small):
    A = RegionMask(grid_small, np.ones(grid_small.n_spatial, bool))
    dp = density_points(A, 0.99, 1.0)
    assert dp.mask.all()


def test_density_points_at_sub_cell_ladder_radii_follow_membership(rng):
    # at level 2 the edge nodes of a 64 x 16 grid have level * m = 2/8 =
    # 0.25, under the spacing 16/63: every rung holds the node alone
    g = HalfSpaceGrid(((-8.0, 8.0),), (64,), 1e-3, 8.0, 16)
    alone = 2.0 * g.m_y <= min(g.spacing)
    assert np.flatnonzero(alone).tolist() == [0, g.n_spatial - 1]
    for _ in range(20):
        A = RegionMask(g, rng.random(g.n_spatial) < 0.5)
        for eta in (0.01, 0.5, 0.99):
            assert np.array_equal(density_points(A, eta, 2.0).mask[alone], A.mask[alone])


def test_containing_density_points(grid_small):
    g = grid_small
    A = _interval_mask(g, -2.0, 2.0)
    d = default_dictionary(g, 1.0)
    F = containing_density_points(A, 0.9, 1.0, d)
    assert F.mask[g.nearest_spatial_index(0.0)]
    assert not F.mask[g.nearest_spatial_index(5.0)]


# -- Whitney cubes ---------------------------------------------------------

def _random_open(grid, rng):
    y = grid.points[:, 0]
    mask = np.zeros(grid.n_spatial, bool)
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-6, 6)
        w = rng.uniform(0.3, 2.0)
        mask |= np.abs(y - c) < w
    return RegionMask(grid, mask)


def _recursive_cubes(O):
    """Reference cover: the depth-first recursion over dyadic cubes, with
    each cube's level, index tuple, center (lo + hi) / 2, nodes and
    distance to the complement."""
    g = O.grid
    base_level = _box_base_level(g)
    edt = complement_distance(O)
    sqrt_n = np.sqrt(g.n)
    cell = min(g.spacing)
    corner = np.array([a for a, _ in g.spatial_box])
    levels, cubes, centers, nodes_per, dist_per = [], [], [], [], []

    def recurse(level, index, node_idx):
        if node_idx.size == 0:
            return
        side = 2.0 ** (-level)
        inside = bool(O.mask[node_idx].all())
        dist_q = float(edt[node_idx].min()) if inside else 0.0
        diam = side * sqrt_n
        if inside and (diam <= dist_q or side <= cell):
            lo = corner + side * np.asarray(index)
            hi = lo + side
            levels.append(level)
            cubes.append(index)
            centers.append((lo + hi) / 2.0)
            nodes_per.append(node_idx)
            dist_per.append(dist_q)
            return
        if side <= cell:
            return
        half = side / 2.0
        mid = corner + side * np.asarray(index) + half
        child_bit = (g.points[node_idx] >= mid).astype(int)
        for corner_bits in np.ndindex(*(2,) * g.n):
            sel = np.all(child_bit == np.asarray(corner_bits), axis=1)
            child_index = tuple(2 * i + b for i, b in zip(index, corner_bits))
            recurse(level + 1, child_index, node_idx[sel])

    recurse(base_level, (0,) * g.n, np.arange(g.n_spatial))
    audit = _audit_cubes(O, np.array(levels, dtype=np.int64), nodes_per,
                         np.array(dist_per), edt)
    # the Whitney bracket diam <= dist <= 4 diam, one cube at a time
    diams = [2.0 ** (-level) * sqrt_n for level in levels]
    audit["bracket_lower_ok"] = all(dm <= d + g.cell for dm, d in zip(diams, dist_per))
    audit["bracket_upper_ok"] = all(d <= 4.0 * dm + g.cell for dm, d in zip(diams, dist_per))
    return levels, cubes, centers, nodes_per, dist_per, audit


def _assert_cover_matches_recursion(O):
    levels, cubes, centers, nodes_per, dist_per, audit = _recursive_cubes(O)
    cover = whitney_cubes(O)
    n_cubes = len(levels)
    assert cover.cubes.shape == cover.centers.shape == (n_cubes, O.grid.n)
    assert cover.cubes.dtype == cover.levels.dtype == np.int64
    assert cover.levels.tolist() == levels
    assert list(map(tuple, cover.cubes.tolist())) == cubes
    assert cover.centers.tobytes() == np.array(centers).reshape(n_cubes, -1).tobytes()
    assert len(cover.nodes) == len(nodes_per)
    for got, want in zip(cover.nodes, nodes_per):
        assert np.array_equal(got, want)
    assert cover.cube_dist.tolist() == dist_per
    assert cover.audit == audit
    assert type(cover.audit["bracket_lower_ok"]) is type(cover.audit["bracket_upper_ok"]) is bool


def _edge_and_singleton_mask(rng, size):
    """A run from one box edge, isolated single nodes and a random run."""
    mask = np.zeros(size, bool)
    k = int(rng.integers(1, size // 3))
    if rng.integers(2):
        mask[:k] = True
    else:
        mask[-k:] = True
    mask[rng.choice(size, 4, replace=False)] = True
    a = int(rng.integers(0, size - 8))
    mask[a:a + int(rng.integers(1, 8))] = True
    return mask


def test_cube_walk_matches_recursion_1d(grid_small):
    rng = np.random.default_rng(11)
    grids = [grid_small, HalfSpaceGrid(((-8.0, 8.0),), (1024,), 1e-3, 8.0, 4),
             HalfSpaceGrid(((-1.0, 1.0),), (77,), 1e-3, 8.0, 4)]
    for trial in range(36):
        g = grids[trial % 3]
        kind = trial // 3 % 4
        if kind == 0:
            O = _random_open(g, rng) if g is not grids[2] else \
                RegionMask(g, np.abs(g.points[:, 0] - rng.uniform(-1, 1)) < 0.4)
        elif kind == 1:
            O = RegionMask(g, rng.random(g.n_spatial) < 0.7)
        elif kind == 2:
            O = RegionMask(g, _edge_and_singleton_mask(rng, g.n_spatial))
        else:
            O = RegionMask(g, _run_mask(rng, g.n_spatial))
        if O.mask.all():
            continue
        _assert_cover_matches_recursion(O)


def test_cube_walk_matches_recursion_2d():
    rng = np.random.default_rng(12)
    for trial in range(16):
        nx, ny = (64, 64) if trial % 4 == 0 else tuple(int(v) for v in rng.integers(8, 60, 2))
        g = HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (nx, ny), 1e-3, 8.0, 4)
        kind = trial % 4
        if kind == 0:       # a union of discs, one of them may leave the box
            x, y = g.points.T
            mask = np.zeros(g.n_spatial, bool)
            for _ in range(3):
                cx, cy = rng.uniform(-9, 9, 2)
                mask |= np.hypot(x - cx, y - cy) < rng.uniform(1.0, 5.0)
        elif kind == 1:
            mask = rng.random(g.n_spatial) < 0.8
        elif kind == 2:     # a rectangle on the box edge plus single nodes
            shaped = np.zeros(g.nx, bool)
            shaped[:rng.integers(1, nx), :rng.integers(1, ny)] = True
            mask = shaped.ravel()
            mask[rng.choice(g.n_spatial, 5, replace=False)] = True
        else:
            mask = _run_mask(rng, g.n_spatial)
        if mask.all():
            continue
        _assert_cover_matches_recursion(RegionMask(g, mask))


def test_cube_walk_matches_recursion_on_bump_level_sets(grid_small, monkeypatch):
    seen = []

    def recording(O):
        seen.append(O)
        return whitney_cubes(O)

    monkeypatch.setattr(atomic, "whitney_cubes", recording)
    f = random_bump(grid_small, np.random.default_rng(3))
    atomic.decompose(f, 2.0, ConeSpec(1.0, 1.0))
    assert len(seen) > 5
    for O in seen:
        _assert_cover_matches_recursion(O)


def test_whitney_cubes_audit(grid_small, rng):
    for _ in range(5):
        O = _random_open(grid_small, rng)
        if not O.mask.any():
            continue
        cover = whitney_cubes(O)
        a = cover.audit
        assert a["bracket_lower_ok"]
        assert a["bracket_upper_ok"]
        assert a["disjoint"]
        assert a["uncovered_within_boundary_layer"]
        # every emitted cube sits inside O
        for nodes in cover.nodes:
            assert O.mask[nodes].all()


def test_whitney_cubes_bounds_nested(grid_small):
    O = _interval_mask(grid_small, -1.0, 1.0)
    cover = whitney_cubes(O)
    lo_box = grid_small.spatial_box[0]
    side = 2.0 ** -cover.levels[:, None]
    lo = lo_box[0] + side * cover.cubes
    hi = lo + side
    assert np.all((lo_box[0] - 1e-9 <= lo) & (lo < cover.centers) & (cover.centers < hi)
                  & (hi <= lo_box[1] + 1e-9))


def test_whitney_cubes_rejects_full_box(grid_small):
    O = RegionMask(grid_small, np.ones(grid_small.n_spatial, bool))
    with pytest.raises(ValueError):
        whitney_cubes(O)


def test_whitney_cubes_needs_power_of_two_box():
    g = HalfSpaceGrid(((-5.0, 5.0),), (64,), 0.01, 1.0, 8)
    O = RegionMask(g, np.abs(g.points[:, 0]) < 1.0)
    with pytest.raises(ValueError):
        whitney_cubes(O)


# -- Whitney balls ---------------------------------------------------------

def test_whitney_balls_audit(grid_small, rng):
    for _ in range(5):
        O = _random_open(grid_small, rng)
        if not O.mask.any():
            continue
        cover = whitney_balls(O)
        a = cover.audit
        assert a["covers_target"]
        assert a["inflated_meet_complement"]
        assert a["shrunken_disjoint"]


@pytest.mark.parametrize("box, nx", [(((-8.0, 8.0),), (512,)),
                                    (((-4.0, 4.0), (-3.0, 5.0)), (40, 33))],
                         ids=["1d", "2d"])
def test_shrunken_disjoint_matches_the_dense_pair_matrix(box, nx, rng):
    # balls at random nodes in random order, with random radii: the window
    # query finds a close pair exactly when the B x B distance matrix does
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, 4)
    seen = set()
    for _ in range(150):
        balls = rng.choice(g.n_spatial, rng.integers(1, 40), replace=False)
        radii = rng.uniform(0.2, 3.0, len(balls)) * g.cell * rng.uniform(1.0, 6.0)
        gap = _distance_rows(g.points[balls], g.points[balls])
        close = gap < (radii[:, None] + radii[None, :]) / _C_OVERLAP - 1e-12
        want = not np.triu(close, 1).any()
        assert _shrunken_disjoint(g, balls, radii) == want
        seen.add(want)
    assert seen == {True, False}
    assert _shrunken_disjoint(g, np.array([], dtype=int), np.array([]))


def _dense_balls(O):
    """Reference cover: the greedy loop over one dense distance row per
    ball, with the center nodes, radii and node sets of its open balls,
    and their audit, one ball at a time."""
    g = O.grid
    C = _C_OVERLAP
    edt = complement_distance(O)
    covered = np.zeros(g.n_spatial, bool)
    balls, radii, nodes_per = [], [], []
    for i in np.argsort(-edt, kind="stable"):
        if covered[i] or not O.mask[i]:
            continue
        r = edt[i] / C
        inside = _distance_rows(g.points, g.points[i]) < r
        balls.append(i)
        radii.append(r)
        nodes_per.append(np.flatnonzero(inside))
        covered |= inside
    overlap = np.zeros(g.n_spatial, dtype=int)
    meets = disjoint = True
    for a, (i, r, inside) in enumerate(zip(balls, radii, nodes_per)):
        overlap[inside] += 1
        meets &= not edt[i] > C * r + g.cell
        gap = _distance_rows(g.points[balls[a + 1:]], g.points[i])
        disjoint &= not np.any(gap < (r + np.array(radii[a + 1:])) / C - 1e-12)
    audit = {
        "n_balls": len(balls),
        "covers_target": bool(np.all(overlap[O.mask] > 0)),
        "inflated_meet_complement": meets,
        "shrunken_disjoint": disjoint,
        "max_overlap": int(overlap.max()) if balls else 0,
        "tolerance_cells": 1,
    }
    return balls, radii, nodes_per, audit


def _assert_balls_match_dense(O):
    balls, radii, nodes_per, audit = _dense_balls(O)
    cover = whitney_balls(O)
    assert cover.balls.tolist() == balls
    assert cover.radii.tobytes() == np.array(radii, dtype=float).tobytes()
    assert cover.centers.tobytes() == O.grid.points[balls].tobytes()
    assert len(cover.nodes) == len(nodes_per)
    for got, want in zip(cover.nodes, nodes_per):
        assert np.array_equal(got, want)
    assert cover.node_dist.tobytes() == complement_distance(O).tobytes()
    assert cover.audit == audit
    return cover


def test_ball_cover_matches_the_dense_greedy_loop(grid_small):
    rng = np.random.default_rng(13)
    for _ in range(8):
        O = _random_open(grid_small, rng)
        if O.mask.all():
            continue
        _assert_balls_match_dense(O)
    g = HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (40, 40), 1e-3, 8.0, 4)
    x, y = g.points.T
    O = RegionMask(g, (np.hypot(x - 1.0, y + 2.0) < 4.0) | (np.abs(x + 5.0) < 1.5))
    assert len(_assert_balls_match_dense(O).balls) > 20
    cover = _assert_balls_match_dense(RegionMask(grid_small, np.zeros(128, bool)))
    assert len(cover.balls) == 0 and cover.audit["covers_target"]


def test_ball_cover_matches_the_dense_greedy_loop_on_bump_level_sets(grid_small, monkeypatch):
    seen = []

    def recording(O):
        seen.append(O)
        return whitney_balls(O)

    monkeypatch.setattr(atomic, "whitney_balls", recording)
    f = random_bump(grid_small, np.random.default_rng(3))
    atomic.decompose(f, np.inf, ConeSpec(1.0, 1.0))
    assert len(seen) > 5
    for O in seen:
        _assert_balls_match_dense(O)


# -- doubling and the integral inequalities --------------------------------

def test_doubling_constant_reasonable(grid_small):
    d = default_dictionary(grid_small, 2.0)
    C = doubling_constant(2.0, d)
    assert 1.0 < C < 1e4
    eta = etabar_from_doubling(C)
    assert 1.0 - 1.0 / C < eta < 1.0
    with pytest.raises(ValueError):
        etabar_from_doubling(0.9)


def _positive_H(grid, rng):
    vals = rng.random((grid.n_spatial, grid.nt))
    vals[np.abs(grid.points[:, 0]) > 3.0, :] = 0.0
    return GridFunction(grid, vals)


def test_density_inequality_finite_ratio(grid_small, rng):
    g = grid_small
    A = _interval_mask(g, -2.0, 2.0)
    H = _positive_H(g, rng)
    d = default_dictionary(g, 2.0)
    spec = ConeSpec(1.0, 1.0)
    etabar = etabar_from_doubling(doubling_constant(2.0, d))
    rep = density_inequality_check(A, H, 0.5, etabar, spec, d)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0
    assert rep["lambda_lower_bound"] > 0
    with pytest.raises(ValueError):
        density_inequality_check(A, GridFunction(g, -H.values), 0.5,
                                 etabar, spec)


def test_reverse_fubini_finite_ratio(grid_small, rng):
    g = grid_small
    F = _interval_mask(g, -2.0, 2.0)
    H = _positive_H(g, rng)
    d = default_dictionary(g, 1.0)
    rep = reverse_fubini_check(F, H, 0.9, ConeSpec(1.0, 1.0), 2.0, d)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] >= 0
    with pytest.raises(ValueError):
        reverse_fubini_check(F, H, 0.9, ConeSpec(2.0, 1.0), 1.0, d)  # delta < alpha


def _written_out_lhs(H, R):
    """The integral of H over the cone union R, the quadrature written out."""
    g = H.grid
    return float(np.sum(H.values * R * g.gamma_y[:, None] * g.wt[None, :]))


def test_integral_checks_take_lhs_from_the_one_quadrature(grid_small, rng):
    # halfspace_integral does the written-out multiplications in their order,
    # so both left sides are the same floats
    g = grid_small
    A = _interval_mask(g, -2.0, 2.0)
    H = _positive_H(g, rng)
    d = default_dictionary(g, 1.0)
    spec = ConeSpec(1.0, 1.0)
    etabar = etabar_from_doubling(doubling_constant(2.0, d))
    A_eta = density_points(A, etabar, spec.beta * (1.0 + spec.beta))
    R = ~tent_mask(RegionMask(g, ~A_eta.mask), 0.5 * cone_caps(g, spec))
    assert density_inequality_check(A, H, 0.5, etabar, spec)["lhs"] == _written_out_lhs(H, R)
    F_tilde = containing_density_points(A, 0.9, spec.beta, d)
    R = ~tent_mask(RegionMask(g, ~F_tilde.mask), cone_caps(g, spec))
    assert reverse_fubini_check(A, H, 0.9, spec, 2.0, d)["lhs"] == _written_out_lhs(H, R)


def test_doubling_sup_skips_balls_whose_gamma_underflows():
    # on [-64, 64] the far dictionary balls have gamma(B) = 0 in floats: the
    # sups run over the others, as on the dictionary cut down to them
    g = HalfSpaceGrid(((-64.0, 64.0),), (1024,), 1e-3, 8.0, 4)
    d = default_dictionary(g, 1.0)
    gam = _gamma_balls(d.centers, d.radii)
    assert (gam == 0.0).any() and (gam > 0.0).any()
    near = BallDictionary(d.centers[gam > 0.0], d.radii[gam > 0.0])
    C = doubling_constant(1.0, d)
    assert np.isfinite(C) and C > 1.0 and C == doubling_constant(1.0, near)
    spec = ConeSpec(1.0, 1.0)       # B~ = B: the dictionary radii are at most m(c)
    K = measured_K_beta(spec, d)
    assert np.isfinite(K) and K > 1.0 and K == measured_K_beta(spec, near)
