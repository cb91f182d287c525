import numpy as np
import pytest

from gausstent.geometry import ConeSpec
from gausstent.grid import GridFunction, HalfSpaceGrid, RegionMask
from gausstent.functionals import default_dictionary
from gausstent.whitney import (
    complement_distance, containing_density_points, cube_bounds,
    density_inequality_check, density_points, doubling_constant,
    etabar_from_doubling, region_R_mask, reverse_fubini_check, set_distance,
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
    # brute force against complement nodes and the box edges
    lo, hi = grid_small.spatial_box[0]
    h = grid_small.spacing[0]
    for i in range(0, grid_small.n_spatial, 7):
        if not O.mask[i]:
            assert d[i] == 0.0
            continue
        cand = np.abs(y[comp] - y[i]) if comp.any() else np.array([np.inf])
        edge = min(y[i] - lo, hi - y[i]) + h  # one padded exterior cell
        want = min(cand.min(initial=np.inf), edge)
        assert d[i] == pytest.approx(want, abs=1e-12)


def test_set_distance_empty(grid_small):
    A = RegionMask(grid_small, np.zeros(grid_small.n_spatial, bool))
    assert np.all(np.isinf(set_distance(A)))


# -- tents over open sets --------------------------------------------------

def test_tent_mask_interval(grid_small):
    g = grid_small
    O = _interval_mask(g, -1.0, 1.0)
    T = tent_mask(O, 1.0, 1.0)
    assert T.kind == "halfspace"
    # center of the interval: included up to depth/alpha heights
    i = g.nearest_spatial_index(0.0)
    assert T.mask[i, g.nearest_t_index(0.5)]
    # outside the interval: excluded at every height
    j = g.nearest_spatial_index(3.0)
    assert not T.mask[j].any()
    # shrinking the aperture weakens the depth requirement: larger tent
    T2 = tent_mask(O, 1.0, 1.0, shrink=0.5)
    assert np.all(T.mask <= T2.mask)


def test_region_R_contains_tent_of_complement_vertices(grid_small):
    g = grid_small
    F = _interval_mask(g, -1.0, 1.0)
    R = region_R_mask(F, 1.0, 1.0)
    # R is the cone-union over F: near a vertex of F, small t nodes included
    i = g.nearest_spatial_index(0.0)
    assert R.mask[i, 0]
    far = g.nearest_spatial_index(6.0)
    assert not R.mask[far].any()


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
        for nodes in cover.cube_nodes:
            assert O.mask[nodes].all()


def test_whitney_cubes_bounds_nested(grid_small):
    O = _interval_mask(grid_small, -1.0, 1.0)
    cover = whitney_cubes(O)
    lo_box = grid_small.spatial_box[0]
    for c in cover.cubes:
        lo, hi = cube_bounds(c, grid_small)
        assert lo_box[0] - 1e-9 <= lo[0] < hi[0] <= lo_box[1] + 1e-9


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


def test_whitney_balls_rejects_small_C(grid_small):
    O = _interval_mask(grid_small, -1.0, 1.0)
    with pytest.raises(ValueError):
        whitney_balls(O, C_overlap=1.5)


# -- doubling and the integral inequalities --------------------------------

def test_doubling_constant_reasonable(grid_small):
    d = default_dictionary(grid_small, 2.0)
    C = doubling_constant(grid_small, 2.0, d)
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
    etabar = etabar_from_doubling(doubling_constant(g, 2.0, d))
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
    rep = reverse_fubini_check(F, H, 0.9, 1.0, 1.0, 2.0, d)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] >= 0
    with pytest.raises(ValueError):
        reverse_fubini_check(F, H, 0.9, 2.0, 1.0, 1.0, d)  # delta < alpha
