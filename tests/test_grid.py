import numpy as np
import pytest

from gausstent.cli import RunConfig
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, RegionMask, SpatialFunction,
    halfspace_integral, lp_gamma_norm, read_grid_function, write_grid_function,
)


def test_weights_integrate_linear_exactly():
    g = HalfSpaceGrid(((-2.0, 3.0),), (64,), 0.1, 2.0, 16)
    y = g.points[:, 0]
    # trapezoid is exact on affine integrands
    assert np.dot(g.wy, 2 * y + 1) == pytest.approx(5.0 + 5.0 * 2.0 / 2 * 1, rel=1e-12)
    assert np.dot(g.wy, np.ones_like(y)) == pytest.approx(5.0, rel=1e-14)


def test_t_weights_realize_dt_over_t():
    g = RunConfig().grid()
    # sum wt == int_{tmin}^{tmax} dt/t, exactly under the log-uniform rule
    assert g.wt.sum() == pytest.approx(np.log(g.t_max / g.t_min), rel=1e-12)
    # and t itself is log-uniform
    assert np.allclose(np.diff(np.log(g.t)), np.diff(np.log(g.t))[0])


def test_aligned_indicator_integral_exact():
    # box and t-range chosen so the indicator edges are grid nodes and the
    # integrand is piecewise constant along each axis
    g = HalfSpaceGrid(((-8.0, 8.0),), (513,), np.exp(-3.0), np.exp(1.0), 129)
    y = g.points[:, 0]
    tol = 1e-12
    yin = (-tol <= y) & (y <= 1.0 + tol)
    tin = (np.exp(-1.0) - tol <= g.t) & (g.t <= 1.0 + tol)
    vals = np.exp(y * y)[:, None] * (yin[:, None] & tin[None, :])
    # edge rows/columns carry only half a trapezoid weight
    vals[np.isclose(y, 0.0, atol=tol)] *= 0.5
    vals[np.isclose(y, 1.0)] *= 0.5
    vals[:, np.isclose(g.t, np.exp(-1.0))] *= 0.5
    vals[:, np.isclose(g.t, 1.0)] *= 0.5
    got = halfspace_integral(GridFunction(g, vals))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_gamma_y_total_mass(grid_default):
    g = grid_default
    assert g.gamma_y.sum() == pytest.approx(np.sqrt(np.pi), rel=1e-10)


def test_nearest_indices(grid_small):
    g = grid_small
    i = g.nearest_spatial_index(0.03)
    assert abs(g.points[i, 0] - 0.03) <= g.cell / 2 + 1e-12
    j = g.nearest_t_index(1.0)
    assert abs(np.log(g.t[j])) == np.min(np.abs(np.log(g.t)))


def test_grid_validation():
    with pytest.raises(ValueError):
        HalfSpaceGrid(((0.0, 1.0),), (8,), 1.0, 0.5, 8)
    with pytest.raises(ValueError):
        HalfSpaceGrid(((1.0, 1.0),), (8,), 0.1, 1.0, 8)
    with pytest.raises(ValueError):
        HalfSpaceGrid(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (4, 4, 4), 0.1, 1.0, 4)


def test_grid_function_protection(grid_small):
    f = GridFunction.zero(grid_small)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        GridFunction(grid_small, np.zeros((3, 3)))


def test_grid_types_take_flat_arrays_only():
    # a 2-D array shaped (nx0, nx1[, nt]) is not reshaped onto the grid
    g = HalfSpaceGrid(((-2.0, 2.0), (-2.0, 2.0)), (8, 6), 0.1, 1.0, 4)
    assert GridFunction(g, np.zeros((48, 4))).values.shape == (48, 4)
    assert SpatialFunction(g, np.zeros(48)).values.shape == (48,)
    assert RegionMask(g, np.zeros(48, dtype=bool)).mask.shape == (48,)
    with pytest.raises(ValueError, match="does not match grid"):
        GridFunction(g, np.zeros((8, 6, 4)))
    with pytest.raises(ValueError, match="does not match grid"):
        SpatialFunction(g, np.zeros((8, 6)))
    with pytest.raises(ValueError, match="mask shape mismatch"):
        RegionMask(g, np.zeros((8, 6), dtype=bool))


def test_grid_function_algebra(grid_small, rng):
    a = rng.normal(size=(grid_small.n_spatial, grid_small.nt))
    f = GridFunction(grid_small, a)
    g = (f + f) * 0.5
    assert np.array_equal(g.values, f.values)


def test_lp_norms(grid_small):
    ones = SpatialFunction(grid_small, np.ones(grid_small.n_spatial))
    assert lp_gamma_norm(ones, 1) == pytest.approx(np.pi ** 0.5, rel=1e-10)
    assert lp_gamma_norm(ones, np.inf) == 1.0
    with pytest.raises(ValueError):
        lp_gamma_norm(ones, 0.5)


@pytest.mark.parametrize("suffix", [".csv", ".gtnt"])
def test_io_roundtrip(grid_small, rng, tmp_path, suffix):
    vals = rng.normal(size=(grid_small.n_spatial, grid_small.nt))
    f = GridFunction(grid_small, vals)
    path = tmp_path / f"f{suffix}"
    write_grid_function(f, path)
    back = read_grid_function(path, grid_small)
    tol = 0 if suffix == ".gtnt" else 1e-15
    assert np.allclose(back.values, vals, rtol=tol, atol=tol)


def test_csv_grid_inference(grid_small, rng, tmp_path):
    vals = rng.normal(size=(grid_small.n_spatial, grid_small.nt))
    f = GridFunction(grid_small, vals)
    path = tmp_path / "f.csv"
    write_grid_function(f, path)
    back = read_grid_function(path)          # grid inferred from the header
    assert back.grid.nx == grid_small.nx
    assert back.grid.nt == grid_small.nt
    assert np.allclose(back.values, vals)


def test_gtnt_read_is_the_file_read_only(grid_small, rng, tmp_path):
    # the values are the file's buffer itself, already read-only
    f = GridFunction(grid_small, rng.normal(size=(grid_small.n_spatial, grid_small.nt)))
    path = tmp_path / "f.gtnt"
    write_grid_function(f, path)
    back = read_grid_function(path)
    assert np.array_equal(back.values, f.values)
    assert not back.values.flags.writeable


def test_gtnt_grid_mismatch(grid_small, grid_default, tmp_path):
    f = GridFunction.zero(grid_small)
    path = tmp_path / "f.gtnt"
    write_grid_function(f, path)
    with pytest.raises(ValueError):
        read_grid_function(path, grid_default)
