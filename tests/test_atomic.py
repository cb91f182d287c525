import hashlib
import json

import numpy as np
import pytest

from gausstent import atomic, functionals
from gausstent.geometry import Ball, ConeSpec, cutoff_m, gamma_ball
from gausstent.grid import GridFunction, HalfSpaceGrid, read_grid_function
from gausstent.functionals import _centered_ladder, _Windows, cone_caps
from gausstent.whitney import _density_columns
from gausstent.atomic import (
    Atom, coefficient_report, decompose, decompose_sup, export_decomposition,
    import_decomposition, reconstruct, validate_atom,
)


def _tent_indicator(grid, spec, center, radius, amplitude=1.0):
    caps = cone_caps(grid, spec)
    depth = np.maximum(radius - np.abs(grid.points[:, 0] - center), 0.0)
    return GridFunction(grid, amplitude * (depth[:, None] >= caps))


def _bump(grid, center):
    y, t = grid.points[:, 0], grid.t
    vals = np.exp(-((y[:, None] - center) / 0.4) ** 2) \
        * np.exp(-np.log(t[None, :] / 0.1) ** 2)
    vals[np.abs(y - center) > 1.0, :] = 0.0
    return vals


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
    return Atom.crop(GridFunction(grid, vals), B, q, delta=r / cutoff_m(c))


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
    vals = a.expand().values.copy()
    vals[0, -1] = 1.0  # a far corner node, certainly outside the tent
    bad = Atom.crop(GridFunction(grid_small, vals), a.ball, a.q, a.delta)
    assert not validate_atom(bad, spec)["support_ok"]


def test_validate_atom_catches_bad_normalization(grid_small):
    spec = ConeSpec(1.0, 1.0)
    a = _make_atom(grid_small, spec, 2.0)
    big = Atom.crop(GridFunction(grid_small, 10.0 * a.expand().values),
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


def _bump_2d(nx):
    g = HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (nx, nx), 1e-3, 8.0, 16)
    r2 = np.sum((g.points - np.array([0.5, -1.0])) ** 2, axis=1)
    vals = np.exp(-r2 / 2.0)[:, None] * np.exp(-np.log(g.t[None, :] / 0.5) ** 2)
    vals[r2 > 9.0, :] = 0.0
    return GridFunction(g, vals)


def test_decompose_roundtrip_2d():
    # 32 x 32 nodes: every window is a set of row ranges
    f = _bump_2d(32)
    spec = ConeSpec(1.0, 1.0)
    d = decompose(f, 2.0, spec)
    assert d.residual_mass == 0.0
    assert d.unassigned == 0
    assert d.audit["nesting_ok"]
    assert np.max(np.abs(reconstruct(d).values - f.values)) <= 1e-12
    assert all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)
    d = decompose_sup(f, spec)
    assert d.residual_mass == 0.0
    assert d.unassigned == 0
    assert all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)


def _ladder_loop(grid, column, level):
    """(num, den) per rung of the per-level loop density_points ran before
    one centered ladder took every level set of a decomposition at once."""
    sums = np.stack([grid.gamma_y * column, grid.gamma_y], axis=1)
    base = level * grid.m_y
    return [_Windows(grid, grid.points, base * 2.0 ** (-k)).gather(sums).T
            for k in range(7)]


def _bump_1d(nx):
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nx // 4)
    return GridFunction(g, _bump(g, 0.5))


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_1d, 1024),
                                      (_bump_2d, 32), (_bump_2d, 48)],
                         ids=["1d-512", "1d-1024", "2d-32", "2d-48"])
def test_decompose_density_points_match_the_per_level_loop(monkeypatch, make, nx):
    # one ladder (seven window sets) serves every level set; each level's
    # sums and density points are those of its own ladder, to the byte
    f = make(nx)
    g = f.grid
    calls, built = [], []

    def recording(grid, F, eta, level):
        out = _density_columns(grid, F, eta, level)
        calls.append((F.copy(), eta, level, out))
        return out

    class Counting(_Windows):
        def __init__(self, *args):
            built.append(len(args[1]))
            super().__init__(*args)

    monkeypatch.setattr(atomic, "_density_columns", recording)
    monkeypatch.setattr(functionals, "_Windows", Counting)
    decompose(f, 2.0, ConeSpec(1.0, 1.0))
    monkeypatch.undo()
    assert len(calls) == 1
    F, eta, level, got = calls[0]
    assert F.shape[1] > 7
    # the cone windows of area_S, then the seven rungs
    assert built[1:] == [g.n_spatial] * 7
    rungs = list(_centered_ladder(g, level, F))
    for j in range(F.shape[1]):
        loop = _ladder_loop(g, F[:, j], level)
        for (num, den), (num_j, den_j) in zip(rungs, loop):
            assert num[:, j].tobytes() == num_j.tobytes()
            assert den.tobytes() == den_j.tobytes()
        ok = np.ones(g.n_spatial, dtype=bool)
        for num_j, den_j in loop:
            ok &= num_j >= eta * den_j
        assert got[:, j].tobytes() == ok.tobytes()


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


def test_decompose_sup_stores_atoms_on_their_boxes():
    # the blocks of a 512x128 bump hold at most 5% of the dense cells
    g = HalfSpaceGrid(((-8.0, 8.0),), (512,), 1e-3, 8.0, 128)
    vals = _bump(g, 0.5)
    d = decompose_sup(GridFunction(g, vals), ConeSpec(1.0, 1.0))
    assert d.terms
    assert sum(a.block.size for _, a in d.terms) \
        <= 0.05 * len(d.terms) * g.n_spatial * g.nt
    assert np.max(np.abs(reconstruct(d).values - vals)) <= 1e-12 * vals.max()


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
        assert a1.box == a2.box           # cropped as they are read
        assert np.array_equal(a1.expand().values, a2.expand().values)
    r1, r2 = reconstruct(d), reconstruct(back)
    assert np.array_equal(r1.values, r2.values)


# (input, q = inf path): atom count, sha256 of the atom files' sha256 digests
# in manifest order, sha256 of reconstruct(d).values.tobytes()
_PINNED_BYTES = {
    ("bump", False): (5, "9b04ef6546137c23453798260221608ad49acd87474115e1a64d68af4a7533cf",
                      "36d2aa037a1dda4c188f82e994ed14fdfa232075818e126ac31a68752f4acdf1"),
    ("bump", True): (39, "43e2e28be2b2789479847401762b4ab046e38368fa00142bc335b9f5cb37f101",
                     "8522483145ee58dbe4a6faf948be59459801e552ed6e2d270b558ab6e4b11552"),
    ("tent", False): (1, "b76c6b754e241bf037923348b27bed68bb86fb9f330334ff549a954f9c0f2ec9",
                      "7e8c61b995f4215a34b7083bc123f8c80a1f34f38d45b10406dadebe390c5457"),
    ("tent", True): (3, "46a9f614b6a642265c30139026d3aedbbeed2a872b24b930a81ac94ea183b735",
                     "7e8c61b995f4215a34b7083bc123f8c80a1f34f38d45b10406dadebe390c5457"),
    ("signed", False): (11, "3ac350e4b7e2b92b864c2fbe109fb075cea2df25014dcb63950054c5b502555b",
                        "fcca14444c7f028c7a3b25b1a5ca7ccc8598a3c9588cc5b8d835789457dd216f"),
    ("signed", True): (44, "30787f8434f4b83a7d29c16b6e822804ae33a154f0b6b85b32af27e35026d4e7",
                       "c9027f7f700ab0c2175651fb3262f768c1f81322aba2353f5da643a8ba9aa775"),
}


@pytest.mark.parametrize("name, sup", sorted(_PINNED_BYTES))
def test_decomposition_bytes_are_pinned(grid_small, tmp_path, name, sup):
    # every atom file and the reconstruction, to the byte; the signed input
    # (a bump minus half a shifted bump) leaves -0.0 in its q = 2 atom files
    g, spec = grid_small, ConeSpec(1.0, 1.0)
    f = {"bump": lambda: GridFunction(g, _bump(g, 0.5)),
         "tent": lambda: _tent_indicator(g, spec, 0.5, 0.4),
         "signed": lambda: GridFunction(g, _bump(g, 0.5) - 0.5 * _bump(g, -0.3)),
         }[name]()
    d = decompose_sup(f, spec) if sup else decompose(f, 2.0, spec)
    manifest = json.loads(export_decomposition(d, tmp_path).read_text())
    files = [tmp_path / e["atom_file"] for e in manifest["terms"]]
    digests = "".join(hashlib.sha256(p.read_bytes()).hexdigest() for p in files)
    assert (len(files), hashlib.sha256(digests.encode()).hexdigest(),
            hashlib.sha256(reconstruct(d).values.tobytes()).hexdigest()) \
        == _PINNED_BYTES[(name, sup)]
    neg_zeros = sum(int(np.sum(np.signbit(v) & (v == 0.0)))
                    for v in (read_grid_function(p).values for p in files))
    assert neg_zeros == (192 if (name, sup) == ("signed", False) else 0)
