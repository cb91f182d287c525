import numpy as np
import pytest

from gausstent.geometry import Ball, ConeSpec, cutoff_m, gamma_ball
from gausstent.grid import GridFunction, HalfSpaceGrid
from gausstent.functionals import cone_caps
from gausstent.atomic import (
    Atom, coefficient_report, decompose, decompose_sup, export_decomposition,
    import_decomposition, reconstruct, validate_atom,
)


def _tent_indicator(grid, spec, center, radius, amplitude=1.0):
    caps = cone_caps(grid, spec)
    depth = np.maximum(radius - np.abs(grid.points[:, 0] - center), 0.0)
    return GridFunction(grid, amplitude * (depth[:, None] >= caps))


def _make_atom(grid, spec, q, center=0.5, frac=0.8):
    c = center
    r = frac * spec.beta * cutoff_m(c)
    B = Ball((c,), r)
    caps = cone_caps(grid, spec)
    depth = np.maximum(r - np.abs(grid.points[:, 0] - c), 0.0)
    tent = (depth[:, None] >= caps).astype(float)
    gB = gamma_ball(B)
    if q == np.inf:
        vals = tent / gB
    else:
        w = grid.gamma_y[:, None] * grid.wt[None, :]
        lq = np.sum(tent ** q * w) ** (1.0 / q)
        vals = tent / lq * gB ** (-(1.0 - 1.0 / q))
    return Atom(GridFunction(grid, vals), B, q, delta=r / cutoff_m(c))


# -- atom validation -------------------------------------------------------

@pytest.mark.parametrize("q", [1.0, 2.0, 4.0, np.inf])
def test_constructed_atom_validates(grid_small, q):
    spec = ConeSpec(1.0, 1.0)
    rep = validate_atom(_make_atom(grid_small, spec, q), spec)
    assert rep["support_ok"]
    assert rep["norm_ok"]
    assert rep["area_l1_ok"], rep["area_l1"]
    assert rep["all_ok"]


def test_validate_atom_catches_bad_support(grid_small):
    spec = ConeSpec(1.0, 1.0)
    a = _make_atom(grid_small, spec, 2.0)
    vals = a.values.values.copy()
    vals[0, -1] = 1.0  # a far corner node, certainly outside the tent
    bad = Atom(GridFunction(grid_small, vals), a.ball, a.q, a.delta)
    assert not validate_atom(bad, spec)["support_ok"]


def test_validate_atom_catches_bad_normalization(grid_small):
    spec = ConeSpec(1.0, 1.0)
    a = _make_atom(grid_small, spec, 2.0)
    big = Atom(GridFunction(grid_small, 10.0 * a.values.values),
               a.ball, a.q, a.delta)
    assert not validate_atom(big, spec)["norm_ok"]


# -- q < inf decomposition -------------------------------------------------

def test_decompose_roundtrip_indicator(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    f = _tent_indicator(g, spec, 0.5, 0.4, amplitude=2.0)
    d = decompose(f, 2.0, spec)
    r = reconstruct(d)
    covered = r.values != 0.0
    assert np.max(np.abs((r.values - f.values) * covered)) <= 1e-12
    assert d.residual_mass < 1e-10
    assert d.audit["nesting_ok"]
    for lam, a in d.terms:
        assert lam >= 0.0
        assert validate_atom(a, spec)["all_ok"]


def test_decompose_roundtrip_bump(grid_default, rng):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    y = g.points[:, 0]
    vals = np.exp(-((y[:, None] - 0.3) / 0.5) ** 2) \
        * np.exp(-np.log(g.t[None, :] / 0.2) ** 2)
    vals[np.abs(y - 0.3) > 1.5, :] = 0.0
    f = GridFunction(g, vals)
    d = decompose(f, 2.0, spec)
    r = reconstruct(d)
    covered = r.values != 0.0
    assert np.max(np.abs((r.values - f.values) * covered)) <= 1e-12
    assert d.residual_mass < 1e-10
    rep = coefficient_report(d)
    assert np.isfinite(rep["ratio"]) and rep["ratio"] > 0


def test_bump_decomposition_is_pinned(grid_small):
    # the 128x32 bump of the CLI pins: cubes per level, every coefficient
    # and ball, to the last bit
    g = grid_small
    y, t = g.points[:, 0], g.t
    vals = np.exp(-((y[:, None] - 0.5) / 0.4) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - 0.5) > 1.0, :] = 0.0
    d = decompose(GridFunction(g, vals), 2.0, ConeSpec(1.0, 1.0), eta=0.5)
    assert [(r["k"], r["n_cubes"]) for r in d.diagnostics] == [
        (-20, 13), (-19, 13), (-18, 12), (-17, 12), (-16, 12), (-15, 11),
        (-14, 11), (-13, 11), (-12, 10), (-11, 12), (-10, 11), (-9, 11),
        (-8, 11), (-7, 11), (-6, 11), (-5, 10), (-4, 10), (-3, 9), (-2, 9),
        (-1, 8), (0, 11)]
    assert coefficient_report(d)["n_atoms"] == 5
    assert [(lam, a.ball.center, a.ball.radius) for lam, a in d.terms] == [
        (0.078007470063778, (-0.25,), 5.500000000125985),
        (0.701417241642202, (0.25,), 5.500000000125985),
        (0.5919733185531175, (0.75,), 5.500000000125985),
        (0.04061074726890257, (1.125,), 2.750000000125984),
        (0.0032302442736684687, (1.375,), 2.750000000125984)]


def test_decompose_roundtrip_2d():
    # 32 x 32 nodes: every window is a set of row ranges
    g = HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (32, 32), 1e-3, 8.0, 16)
    spec = ConeSpec(1.0, 1.0)
    r2 = np.sum((g.points - np.array([0.5, -1.0])) ** 2, axis=1)
    vals = np.exp(-r2 / 2.0)[:, None] * np.exp(-np.log(g.t[None, :] / 0.5) ** 2)
    vals[r2 > 9.0, :] = 0.0
    f = GridFunction(g, vals)
    d = decompose(f, 2.0, spec)
    assert d.residual_mass == 0.0
    assert d.audit["nesting_ok"]
    assert np.max(np.abs(reconstruct(d).values - f.values)) <= 1e-12
    assert all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)


def test_decompose_zero_function(grid_small):
    d = decompose(GridFunction.zero(grid_small), 2.0, ConeSpec(1.0, 1.0))
    assert d.terms == []
    assert d.residual_mass == 0.0
    assert coefficient_report(d)["n_atoms"] == 0


def test_decompose_rejects_bad_q(grid_small):
    with pytest.raises(ValueError):
        decompose(GridFunction.zero(grid_small), np.inf, ConeSpec(1.0, 1.0))
    with pytest.raises(ValueError):
        decompose(GridFunction.zero(grid_small), 0.5, ConeSpec(1.0, 1.0))


def test_decompose_mu_audit(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    f = _tent_indicator(g, spec, -0.8, 0.3)
    d = decompose(f, 2.0, spec)
    # the measure-vs-2^{qk} gamma(B) bound from the construction
    assert d.audit["mu_over_gamma_2qk_max"] < np.inf
    assert d.audit["doubling_constant"] > 1.0
    assert 0.0 < d.audit["etabar"] < 1.0


# -- q = inf decomposition -------------------------------------------------

def test_decompose_sup_roundtrip(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    y = g.points[:, 0]
    vals = np.exp(-((y[:, None] - 0.2) / 0.6) ** 2) \
        * np.exp(-np.log(g.t[None, :] / 0.3) ** 2)
    vals[np.abs(y - 0.2) > 1.8, :] = 0.0
    f = GridFunction(g, vals)
    d = decompose_sup(f, spec)
    r = reconstruct(d)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(r.values - f.values)) <= 1e-12 * scale
    assert d.audit["partition_defect"] <= 1e-12
    for lam, a in d.terms:
        assert a.q == np.inf
        rep = validate_atom(a, spec)
        assert rep["support_ok"] and rep["norm_ok"], rep


def test_decompose_sup_zero(grid_small):
    d = decompose_sup(GridFunction.zero(grid_small), ConeSpec(1.0, 1.0))
    assert d.terms == []


# -- persistence -----------------------------------------------------------

def test_export_import_roundtrip(grid_small, tmp_path):
    spec = ConeSpec(1.0, 1.0)
    f = _tent_indicator(grid_small, spec, 0.5, 0.4)
    d = decompose(f, 2.0, spec)
    assert d.terms
    manifest = export_decomposition(d, tmp_path / "dec")
    back = import_decomposition(manifest)
    assert len(back.terms) == len(d.terms)
    assert back.q == d.q
    assert back.spec.alpha == spec.alpha
    for (l1, a1), (l2, a2) in zip(d.terms, back.terms):
        assert l1 == l2
        assert a1.ball == a2.ball
        assert np.array_equal(a1.values.values, a2.values.values)
    r1, r2 = reconstruct(d), reconstruct(back)
    assert np.array_equal(r1.values, r2.values)
