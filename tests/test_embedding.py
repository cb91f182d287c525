import numpy as np
import pytest

from _families import make_atom
from gausstent.atomic import Atom
from gausstent.geometry import Ball, ConeSpec
from gausstent.grid import GridFunction, HalfSpaceGrid, SpatialFunction
from gausstent.embedding import _PHI_PEAK, _phi, check_h1_atom, pi_phi
from gausstent.families import boundary_atom


def _pi_phi_dense(f, local=True):
    """pi_phi with every kernel row evaluated across the whole grid: the
    oracle the banded kernel must reproduce to the bit."""
    g = f.grid
    y = g.points[:, 0]
    x = y
    gw = g.gamma_y
    acc = np.zeros(g.n_spatial)
    for j, tj in enumerate(g.t):
        rows = np.nonzero(f.values[:, j])[0]
        if local:
            rows = rows[tj < g.m_y[rows]]
        if rows.size == 0:
            continue
        kernel = _phi((x[None, :] - y[rows, None]) / tj) / tj  # (rows, x)
        support = np.abs(x[None, :] - y[rows, None]) < tj
        wsum = (kernel * g.wy[None, :]).sum(axis=1)
        wtot = (support * g.wy[None, :]).sum(axis=1)
        kernel = kernel - support * (wsum / wtot)[:, None]
        coeff = f.values[rows, j] * gw[rows] * g.wt[j]
        acc += coeff @ kernel
    return SpatialFunction(g, acc * np.exp(x * x))


def test_phi_peak_is_the_minimize_scalar_float():
    # _phi pins the peak so that embed and verify import no
    # scipy.optimize; the pin must stay the float the optimizer returns
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda x: -x * np.exp(-1.0 / (1.0 - x * x)),
                          bounds=(1e-6, 1.0 - 1e-6), method="bounded")
    assert _PHI_PEAK == -res.fun
    assert _phi(np.array([res.x]))[0] == pytest.approx(1.0, rel=1e-15)


def test_phi_shape():
    xs = np.linspace(-2, 2, 1001)
    vals = _phi(xs)
    assert np.all(vals[np.abs(xs) >= 1.0] == 0.0)
    assert np.allclose(_phi(xs), -_phi(-xs))         # odd
    # sampled peak sits within one grid step of the true peak value 1
    assert np.max(np.abs(vals)) == pytest.approx(1.0, rel=1e-4)
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def test_pi_phi_zero(grid_small):
    u = pi_phi(GridFunction.zero(grid_small))
    assert np.all(u.values == 0.0)


def test_pi_phi_linear(grid_small, rng):
    vals = rng.random((grid_small.n_spatial, grid_small.nt))
    vals[np.abs(grid_small.points[:, 0]) > 2, :] = 0.0
    f = GridFunction(grid_small, vals)
    u1 = pi_phi(f)
    u2 = pi_phi(f * 2.0)
    assert np.allclose(u2.values, 2.0 * u1.values, rtol=1e-13, atol=1e-300)


def test_pi_phi_gamma_average_vanishes(grid_small, rng):
    vals = rng.random((grid_small.n_spatial, grid_small.nt))
    vals[np.abs(grid_small.points[:, 0]) > 2, :] = 0.0
    u = pi_phi(GridFunction(grid_small, vals))
    avg = float(np.sum(u.values * grid_small.gamma_y))
    scale = float(np.sum(np.abs(u.values) * grid_small.gamma_y))
    assert abs(avg) <= 1e-12 * max(scale, 1e-300)


@pytest.mark.parametrize("center", [0.0, 1.5, -2.3])
def test_atom_checks_pass(grid_default, center):
    spec = ConeSpec(1.0, 1.0)
    rep = check_h1_atom(make_atom(grid_default, spec, 2.0, center))
    assert rep["support_ok"]
    assert rep["average_ok"]
    assert np.isfinite(rep["l2_constant"])
    assert rep["all_ok"]


def test_an_atom_the_operator_maps_to_zero_passes(grid_default):
    # values only at t >= 1, at or above m(y) everywhere: the local operator
    # keeps no row, and the average check takes its zero-norm branch
    g = grid_default
    vals = (np.abs(g.points[:, 0])[:, None] < 0.5) & (g.t[None, :] >= 1.0)
    atom = Atom.crop(GridFunction(g, vals.astype(float)), Ball((0.0,), 0.8), 2.0)
    assert not np.any(pi_phi(atom.expand()).values)
    rep = check_h1_atom(atom)
    assert rep["l1_norm"] == 0.0 and rep["average_ok"] is True
    assert rep["all_ok"] is True


def test_truncation_sentinel_fails_support(grid_default):
    spec = ConeSpec(1.0, 1.0)
    atom = boundary_atom(grid_default, spec)
    good = check_h1_atom(atom, local=True)
    bad = check_h1_atom(atom, local=False)
    assert good["support_ok"]
    assert not bad["support_ok"]


def test_pi_phi_rejects_2d():
    g = HalfSpaceGrid(((-2.0, 2.0), (-2.0, 2.0)), (8, 8), 0.1, 1.0, 4)
    with pytest.raises(ValueError):
        pi_phi(GridFunction.zero(g))


@pytest.mark.parametrize("nx", [64, 128, 131, 300, 1024])
@pytest.mark.parametrize("local", [True, False])
def test_banded_pi_phi_is_the_dense_loop_to_the_bit(nx, local):
    # random signed values, whole empty rows, and full rows on the box
    # edges y = -8 and y = 8, where the band is cut off by the grid
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, 24)
    rng = np.random.default_rng(nx)
    vals = rng.standard_normal((nx, g.nt)) * (rng.random((nx, g.nt)) < 0.4)
    vals[rng.random(nx) < 0.3] = 0.0
    vals[[0, -1]] = rng.standard_normal((2, g.nt))
    f = GridFunction(g, vals)
    want = _pi_phi_dense(f, local).values
    assert pi_phi(f, local).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("local", [True, False])
def test_banded_pi_phi_on_the_boundary_atom_is_the_dense_loop(grid_default, local):
    f = boundary_atom(grid_default, ConeSpec(1.0, 1.0)).expand()
    want = _pi_phi_dense(f, local).values
    assert np.any(want != 0.0)
    assert pi_phi(f, local).values.tobytes() == want.tobytes()
