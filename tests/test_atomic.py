import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from gausstent import _kernels, atomic, functionals, whitney
from gausstent._kernels import (
    _C_OVERLAP, _ball_tent, _ball_windows, _centered_ladder, _density_columns,
    _distance_rows,
)
from _families import bump, bump_2d, make_atom
from gausstent.families import random_atom, random_bump, tent_indicator
from gausstent.geometry import Ball, ConeSpec, gamma_ball
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, RegionMask, halfspace_integral, lp_gamma_norm,
    read_grid_function, write_grid_function,
)
from gausstent.functionals import area_S, cone_caps
from gausstent.whitney import complement_distance, tent_mask
from gausstent.atomic import (
    Atom, coefficient_report, decompose, export_decomposition,
    import_decomposition, reconstruct, validate_atom,
)


# -- atom validation -------------------------------------------------------

@pytest.mark.parametrize("q", [1.0, 2.0, 4.0, np.inf])
def test_constructed_atom_validates(grid_small, q):
    spec = ConeSpec(1.0, 1.0)
    rep = validate_atom(make_atom(grid_small, spec, q), spec)
    assert rep["support_ok"]
    assert rep["norm_ok"]
    assert rep["area_l1_ok"], rep["area_l1"]
    assert rep["all_ok"]


def test_validate_atom_catches_bad_support(grid_small):
    spec = ConeSpec(1.0, 1.0)
    a = make_atom(grid_small, spec, 2.0)
    vals = a.expand().values.copy()
    vals[0, -1] = 1.0  # a far corner node, certainly outside the tent
    bad = Atom.crop(GridFunction(grid_small, vals), a.ball, a.q)
    assert not validate_atom(bad, spec)["support_ok"]


def test_validate_atom_catches_bad_normalization(grid_small):
    spec = ConeSpec(1.0, 1.0)
    a = make_atom(grid_small, spec, 2.0)
    big = Atom.crop(GridFunction(grid_small, 10.0 * a.expand().values),
                    a.ball, a.q)
    assert not validate_atom(big, spec)["norm_ok"]


def _whole_grid_validate(a, spec):
    """validate_atom as it ran on the atom expanded to the whole grid."""
    f, g = a.expand(), a.grid
    in_tent = _ball_tent(g.points, a.ball.center_array, a.ball.radius, cone_caps(g, spec))
    support_ok = bool(not np.any((f.values != 0.0) & ~in_tent))
    gB = gamma_ball(a.ball)
    if a.q == np.inf:
        norm_value, norm_bound = float(np.max(np.abs(f.values))), 1.0 / gB
        S = area_S(f, np.inf, spec)
    else:
        norm_value = halfspace_integral(GridFunction(g, np.abs(f.values) ** a.q)) ** (1.0 / a.q)
        norm_bound = gB ** (-(1.0 - 1.0 / a.q))
        S = area_S(f, a.q, spec)
    norm_ok = bool(norm_value <= norm_bound * (1.0 + 1e-9))
    s_l1 = lp_gamma_norm(S, 1)
    return {"support_ok": support_ok, "norm_ok": norm_ok, "area_l1_ok": bool(s_l1 <= 1.05),
            "norm_value": norm_value, "norm_bound": norm_bound, "area_l1": s_l1,
            "all_ok": support_ok and norm_ok and bool(s_l1 <= 1.05)}


def _assert_validates_as_on_the_whole_grid(atoms, spec):
    for a in atoms:
        got, want = validate_atom(a, spec), _whole_grid_validate(a, spec)
        assert got.keys() == want.keys()
        # the L^q norm is summed on the block, in another order; the max is exact
        if a.q < np.inf:
            assert got["norm_value"] == pytest.approx(want["norm_value"], rel=1e-12, abs=0.0)
            got["norm_value"] = want["norm_value"]
        assert got == want


def test_validate_atom_on_its_box_matches_the_whole_grid_checks(grid_small, rng):
    # atoms that fail a check, -0.0 cells and random atoms at every q
    spec = ConeSpec(1.0, 1.0)
    atoms = [make_atom(grid_small, spec, q, center=c)
             for q in (1.0, 1.5, 2.0, 4.0, np.inf) for c in (-2.0, 0.5)]
    a = atoms[2]
    vals = a.expand().values.copy()
    vals[0, -1] = 1.0
    vals[a.box[0].start + 3, a.box[1]] = -0.0
    atoms.append(Atom.crop(GridFunction(grid_small, vals), a.ball, a.q))
    atoms.append(Atom.crop(10.0 * a.expand(), a.ball, a.q))
    atoms += [random_atom(grid_small, spec, q, rng) for q in (1.0, 2.0, 3.0, np.inf)]
    atoms.append(Atom.crop(GridFunction.zero(grid_small), a.ball, 2.0))
    _assert_validates_as_on_the_whole_grid(atoms, spec)
    assert not all(validate_atom(a, spec)["all_ok"] for a in atoms)


def test_an_atoms_level_is_read_off_its_ball(grid_small, tmp_path):
    # r_B / m(c_B) where m(c) < 1: radius 0.8 beta m(c) is level 0.8 beta
    spec = ConeSpec(1.0, 2.0)
    a = make_atom(grid_small, spec, 2.0, center=-2.0)
    assert a.delta == pytest.approx(1.6, rel=1e-15)
    path = export_decomposition(atomic.Decomposition([(1.0, a)], 1.0, 2.0, spec), tmp_path)
    assert json.loads(path.read_text())["terms"][0]["delta"] == a.delta
    assert import_decomposition(path).terms[0][1].delta == a.delta


# -- q < inf decomposition -------------------------------------------------

def test_decompose_roundtrip_indicator(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    f = tent_indicator(g, spec, 0.5, 0.4) * 2.0
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
    d = decompose(bump(grid_small), 2.0, ConeSpec(1.0, 1.0), eta=0.5)
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
    return bump_2d(HalfSpaceGrid(((-8.0, 8.0), (-8.0, 8.0)), (nx, nx), 1e-3, 8.0, 16))


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
    d = decompose(f, np.inf, spec)
    assert d.residual_mass == 0.0
    assert d.unassigned == 0
    assert all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)


def _ladder_loop(grid, column, level):
    """(num, den) per rung of the per-level loop density_points ran before
    one centered ladder took every level set of a decomposition at once."""
    sums = np.stack([grid.gamma_y * column, grid.gamma_y], axis=1)
    base = level * grid.m_y
    return [_ball_windows(grid, grid.points, base * 2.0 ** (-k)).gather(sums).T
            for k in range(7)]


def _bump_1d(nx):
    return bump(HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nx // 4))


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

    def counting(grid, centers, radii):
        # (windows, centered at every node); 1-D cone windows from row
        # breakpoints are built from ranges and never pass here
        built.append((len(radii), centers is grid.points))
        return _ball_windows(grid, centers, radii)

    monkeypatch.setattr(atomic, "_density_columns", recording)
    monkeypatch.setattr(_kernels, "_ball_windows", counting)
    decompose(f, 2.0, ConeSpec(1.0, 1.0))
    monkeypatch.undo()
    assert len(calls) == 1
    F, eta, level, got = calls[0]
    assert F.shape[1] > 7
    # seven rungs of N windows, one per node, built last and nothing else
    # centered at every node
    assert [n for n, every_node in built if every_node] == [g.n_spatial] * 7
    assert all(every_node for _, every_node in built[-7:])
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


def _per_level_sets(S, scale):
    """k_range and the level sets {S > 2^k} as each decomposition built
    them before the two shared one pipeline."""
    pos = scale[scale > 0]
    kmin = int(np.floor(np.log2(pos.min()))) - 1
    kmax = int(np.ceil(np.log2(pos.max())))
    return (kmin, kmax), np.stack([S.values > 2.0 ** k for k in range(kmin, kmax + 2)],
                                  axis=1)


def _tent_list_bands(g, sets, caps):
    """(i, band) for the nonempty columns but the last, from the list of
    every column's tent_mask."""
    tents = [tent_mask(RegionMask(g, Ok), caps) for Ok in sets.T]
    for i in range(sets.shape[1] - 1):
        if sets[:, i].any():
            yield i, tents[i] & ~tents[i + 1]


@pytest.mark.parametrize("sup", [False, True], ids=["q2", "sup"])
@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_2d, 32)],
                         ids=["1d-512", "2d-32"])
def test_bands_match_the_per_level_tent_list(monkeypatch, make, nx, sup):
    # the level sets, and each band against the list of all L tents that
    # the decompositions kept before _bands, to the byte; each band comes
    # with the cover of its own column
    f = make(nx)
    g, spec = f.grid, ConeSpec(1.0, 1.0)
    calls = []
    bands = atomic._bands

    def recording(grid, sets, caps, cover):
        got = {}
        calls.append((sets.copy(), caps.copy(), got))
        for i, band, c in bands(grid, sets, caps, cover):
            assert c.node_dist.tobytes() \
                == complement_distance(RegionMask(grid, sets[:, i])).tobytes()
            got[i] = band.copy()
            yield i, band, c

    monkeypatch.setattr(atomic, "_bands", recording)
    d = decompose(f, np.inf, spec) if sup else decompose(f, 2.0, spec)
    monkeypatch.undo()
    S = area_S(f, np.inf, spec) if sup else area_S(f, 2.0, spec)
    k_range, O = _per_level_sets(S, np.abs(f.values) if sup else S.values)
    assert d.audit["k_range"] == k_range
    assert atomic._level_sets(S, np.abs(f.values) if sup else S.values)[1].tobytes() \
        == O.tobytes()
    assert len(calls) == 1
    sets, caps, got = calls[0]
    if sup:
        assert caps.tobytes() == cone_caps(g, spec).tobytes()
        assert np.array_equal(sets, O)
    else:
        lam = spec.beta * (1.0 + spec.beta)
        inflated = ~_density_columns(g, ~O, d.audit["etabar"], lam)
        assert caps.tobytes() == (0.5 * cone_caps(g, spec)).tobytes()
        assert np.array_equal(sets, inflated)
    want = dict(_tent_list_bands(g, sets, caps))
    assert len(want) > 5 and sorted(got) == sorted(want)
    for i in want:
        assert got[i].tobytes() == want[i].tobytes()


def test_decompose_zero_function(grid_small):
    d = decompose(GridFunction.zero(grid_small), 2.0, ConeSpec(1.0, 1.0))
    assert d.terms == []
    assert d.residual_mass == 0.0
    assert coefficient_report(d)["n_atoms"] == 0


def test_decompose_rejects_bad_q(grid_small):
    with pytest.raises(ValueError):
        decompose(GridFunction.zero(grid_small), np.nan, ConeSpec(1.0, 1.0))
    with pytest.raises(ValueError):
        decompose(GridFunction.zero(grid_small), 0.5, ConeSpec(1.0, 1.0))


def test_decompose_mu_audit(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    f = tent_indicator(g, spec, -0.8, 0.3)
    d = decompose(f, 2.0, spec)
    # the measure-vs-2^{qk} gamma(B) bound from the construction
    assert d.audit["mu_over_gamma_2qk_max"] < np.inf
    assert d.audit["doubling_constant"] > 1.0
    assert 0.0 < d.audit["etabar"] < 1.0


def _atom_on_rows(grid, row0, values, ball, q):
    """The atom whose values are `values` on the rows row0, row0 + 1, ...,
    cropped to the bounding box of the values that are not +0.0."""
    kept = np.signbit(values) | (values != 0.0)
    r = np.flatnonzero(kept.any(axis=1))
    c = np.flatnonzero(kept.any(axis=0))
    r0, r1 = (int(r[0]), int(r[-1]) + 1) if r.size else (0, 0)
    c0, c1 = (int(c[0]), int(c[-1]) + 1) if c.size else (0, 0)
    return Atom(grid, (slice(row0 + r0, row0 + r1), slice(c0, c1)),
                values[r0:r1, c0:c1].copy(), ball, q)


def _per_cube_decompose(f, q, spec, eta=0.5):
    """decompose as it ran before its loop read the cover's arrays: a
    scalar radius, the center (lo + hi) / 2 and a Ball for every cube."""
    g = f.grid
    S = area_S(f, q, spec)
    (kmin, kmax), O = atomic._level_sets(S, S.values)
    lam = spec.beta * (1.0 + spec.beta)
    C_doub = atomic.doubling_constant(lam, functionals.default_dictionary(g, lam))
    etabar = atomic.etabar_from_doubling(C_doub)
    C_inflate = 1.0 + 5.0 / (1.0 - eta)
    inflated = ~_density_columns(g, ~O, etabar, lam)
    shrink = 1.0 - eta
    caps = cone_caps(g, spec)
    weights = g.gamma_y[:, None] * g.wt[None, :]
    corner = np.array([a for a, _ in g.spatial_box])
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)
    terms, diagnostics, mu_bound_worst = [], [], 0.0
    for i, band in _tent_list_bands(g, inflated, shrink * caps):
        k = kmin + i
        cover = atomic.whitney_cubes(RegionMask(g, inflated[:, i]))
        diagnostics.append({
            "k": k,
            "level_set_gamma": float(g.gamma_y[O[:, i]].sum()),
            "inflated_gamma": float(g.gamma_y[inflated[:, i]].sum()),
            "n_cubes": len(cover.cubes),
        })
        for level, index, nodes, dist_q in zip(cover.levels.tolist(), cover.cubes.tolist(),
                                               cover.nodes, cover.cube_dist.tolist()):
            side = 2.0 ** (-level)
            d_j = side * np.sqrt(g.n)
            lo = corner + side * np.asarray(index)
            hi = lo + side
            c_j = (lo + hi) / 2.0
            r_j = max(C_inflate * d_j, d_j + (dist_q + d_j) / shrink) + g.cell * 1e-9
            B_j = Ball(tuple(c_j), r_j)
            piece = band[nodes] & _ball_tent(g.points[nodes], c_j, r_j, caps[nodes])
            vals = f.values[nodes] * piece
            mu = float(np.sum(np.abs(vals) ** q * weights[nodes]))
            assigned[nodes] |= piece
            if mu == 0.0:
                continue
            gB = gamma_ball(B_j)
            lam_jk = gB ** (1.0 - 1.0 / q) * mu ** (1.0 / q)
            row0 = int(nodes[0])
            block = np.zeros((int(nodes[-1]) + 1 - row0, g.nt))
            block[nodes - row0] = vals / lam_jk
            atom = _atom_on_rows(g, row0, block, B_j, q)
            terms.append((lam_jk, atom))
            mu_bound_worst = max(mu_bound_worst, mu / (gB * 2.0 ** (q * k)))
    residual, unassigned = atomic._left_out(f, assigned, np.abs(f.values) ** q)
    return atomic.Decomposition(
        terms, lp_gamma_norm(S, 1), q, spec, diagnostics, residual,
        audit={"nesting_ok": not np.any(inflated[:, 1:] & ~inflated[:, :-1]),
               "etabar": etabar, "doubling_constant": C_doub, "C_inflate": C_inflate,
               "mu_over_gamma_2qk_max": mu_bound_worst, "k_range": (kmin, kmax)},
        unassigned=unassigned)


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_1d, 1024),
                                      (_bump_2d, 32), (_bump_2d, 48)],
                         ids=["1d-512", "1d-1024", "2d-32", "2d-48"])
def test_decompose_matches_the_per_cube_loop(make, nx):
    # radii of a level at once, cubes with no band node skipped and a Ball
    # only for a piece with mass: the same terms, to the bit
    f = make(nx)
    spec = ConeSpec(1.0, 1.0)
    d, want = decompose(f, 2.0, spec), _per_cube_decompose(f, 2.0, spec)
    assert len(d.terms) == len(want.terms) > 0
    for (lam, a), (lam_w, a_w) in zip(d.terms, want.terms):
        assert lam == lam_w
        assert a.box == a_w.box and a.block.tobytes() == a_w.block.tobytes()
        assert a.ball.center == a_w.ball.center and a.ball.radius == a_w.ball.radius
        assert a.delta == a_w.delta and a.q == a_w.q
    assert d.diagnostics == want.diagnostics
    assert d.audit == want.audit
    assert (d.source_norm, d.residual_mass, d.unassigned) \
        == (want.source_norm, want.residual_mass, want.unassigned)


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_2d, 32)],
                         ids=["1d-512", "2d-32"])
def test_decompose_builds_a_ball_only_for_an_atom(monkeypatch, make, nx):
    built = []

    class Counting(Ball):
        def __post_init__(self):
            built.append(self.radius)
            super().__post_init__()

    monkeypatch.setattr(atomic, "Ball", Counting)
    d = decompose(make(nx), 2.0, ConeSpec(1.0, 1.0))
    assert sum(r["n_cubes"] for r in d.diagnostics) > 2 * len(d.terms)
    assert len(built) == len(d.terms)


@pytest.mark.parametrize("sup", [False, True], ids=["q2", "sup"])
@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_2d, 32)],
                         ids=["1d-512", "2d-32"])
def test_one_distance_transform_per_level_set(monkeypatch, make, nx, sup):
    # the covers measure dist(x, O^c) and the bands take their tents from it
    calls = []
    edt = whitney._edt

    def counting(feature, spacing):
        calls.append(feature.shape)
        return edt(feature, spacing)

    monkeypatch.setattr(whitney, "_edt", counting)
    f, spec = make(nx), ConeSpec(1.0, 1.0)
    d = decompose(f, np.inf, spec) if sup else decompose(f, 2.0, spec)
    monkeypatch.undo()
    kmin, kmax = d.audit["k_range"]
    assert len(d.diagnostics) > 5
    assert len(calls) <= kmax - kmin + 2


# -- q = inf decomposition -------------------------------------------------

def test_decompose_sup_roundtrip(grid_default):
    g = grid_default
    spec = ConeSpec(1.0, 1.0)
    y = g.points[:, 0]
    vals = np.exp(-((y[:, None] - 0.2) / 0.6) ** 2) \
        * np.exp(-np.log(g.t[None, :] / 0.3) ** 2)
    vals[np.abs(y - 0.2) > 1.8, :] = 0.0
    f = GridFunction(g, vals)
    d = decompose(f, np.inf, spec)
    r = reconstruct(d)
    scale = np.max(np.abs(f.values))
    assert np.max(np.abs(r.values - f.values)) <= 1e-12 * scale
    assert d.audit["partition_defect"] <= 1e-12
    for lam, a in d.terms:
        assert a.q == np.inf
        rep = validate_atom(a, spec)
        assert rep["support_ok"] and rep["norm_ok"], rep


def _dense_hat_decompose_sup(f, spec):
    """decompose at q = inf as it ran with one whole-grid hat per cover
    ball, all alive for the level, and a Ball for every cover ball."""
    g = f.grid
    S = area_S(f, np.inf, spec)
    absf = np.abs(f.values)
    (kmin, kmax), O = atomic._level_sets(S, absf)
    star = 2.0 * _C_OVERLAP + 3.0
    terms, diagnostics, partition_defect = [], [], 0.0
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)
    for i, band in _tent_list_bands(g, O, cone_caps(g, spec)):
        k = kmin + i
        cover = atomic.whitney_balls(RegionMask(g, O[:, i]))
        diagnostics.append({"k": k, "level_set_gamma": float(g.gamma_y[O[:, i]].sum()),
                            "n_balls": len(cover.balls)})
        balls = [Ball(tuple(g.points[j]), r) for j, r in zip(cover.balls, cover.radii)]
        hats = [np.maximum(B_j.radius - _distance_rows(g.points, B_j.center_array), 0.0)
                for B_j in balls]
        hat_total = np.sum(hats, axis=0)
        relevant = band & (absf > 0)
        phi_sum = np.zeros(g.n_spatial)
        for B_j, w in zip(balls, hats):
            on = np.flatnonzero(w > 0.0)
            rows = slice(int(on[0]), int(on[-1]) + 1)
            under = hat_total[rows]
            phi = w[rows] / np.where(under > 0, under, 1.0)
            phi_sum[rows] += phi
            piece = relevant[rows] & (phi[:, None] > 0)
            if not piece.any():
                continue
            B_star = Ball(B_j.center, star * B_j.radius)
            mu = 2.0 ** (k + 1) * gamma_ball(B_star)
            block = np.where(piece, f.values[rows] * phi[:, None] / mu, 0.0)
            assigned[rows] |= piece
            terms.append((mu, _atom_on_rows(g, rows.start, block, B_star, np.inf)))
        active = relevant.any(axis=1) & (hat_total > 0)
        if active.any():
            partition_defect = max(partition_defect,
                                   float(np.max(np.abs(phi_sum[active] - 1.0))))
    residual, unassigned = atomic._left_out(f, assigned, absf)
    return atomic.Decomposition(
        terms, lp_gamma_norm(S, 1), np.inf, spec, diagnostics, residual,
        audit={"C_overlap": _C_OVERLAP, "inflation_factor": star,
               "k_range": (kmin, kmax), "partition_defect": partition_defect},
        unassigned=unassigned)


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_1d, 1024),
                                      (_bump_2d, 32), (_bump_2d, 48)],
                         ids=["1d-512", "1d-1024", "2d-32", "2d-48"])
def test_decompose_sup_matches_the_dense_hat_loop(make, nx):
    # hats on each ball's nodes, summed in ball order, and a Ball only for
    # a piece that makes an atom: the same terms, to the bit
    f = make(nx)
    spec = ConeSpec(1.0, 1.0)
    d, want = decompose(f, np.inf, spec), _dense_hat_decompose_sup(f, spec)
    assert len(d.terms) == len(want.terms) > 0
    for (lam, a), (lam_w, a_w) in zip(d.terms, want.terms):
        assert lam == lam_w
        assert a.box == a_w.box and a.block.tobytes() == a_w.block.tobytes()
        assert a.ball.center == a_w.ball.center and a.ball.radius == a_w.ball.radius
        assert a.delta == a_w.delta and a.q == a_w.q
    assert d.diagnostics == want.diagnostics
    assert d.audit == want.audit
    assert (d.source_norm, d.residual_mass, d.unassigned) \
        == (want.source_norm, want.residual_mass, want.unassigned)


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_1d, 1024),
                                      (_bump_2d, 32), (_bump_2d, 48)],
                         ids=["1d-512", "1d-1024", "2d-32", "2d-48"])
def test_validate_atom_of_decompositions_matches_the_whole_grid_checks(make, nx):
    # the atoms of both decompositions of the oracle inputs
    f, spec = make(nx), ConeSpec(1.0, 1.0)
    for d in (decompose(f, 2.0, spec), decompose(f, np.inf, spec)):
        assert d.terms
        _assert_validates_as_on_the_whole_grid([a for _, a in d.terms], spec)


@pytest.mark.parametrize("make, nx", [(_bump_1d, 512), (_bump_2d, 32)],
                         ids=["1d-512", "2d-32"])
def test_decompose_sup_builds_a_ball_only_for_an_atom(monkeypatch, make, nx):
    built = []
    post_init = Ball.__post_init__

    def counting(self):
        built.append(self.radius)
        post_init(self)

    monkeypatch.setattr(Ball, "__post_init__", counting)
    d = decompose(make(nx), np.inf, ConeSpec(1.0, 1.0))
    monkeypatch.undo()
    assert sum(r["n_balls"] for r in d.diagnostics) > 2 * len(d.terms)
    assert len(built) == len(d.terms)


def test_decompose_sup_stores_atoms_on_their_boxes():
    # the blocks of a 512x128 bump hold at most 5% of the dense cells
    g = HalfSpaceGrid(((-8.0, 8.0),), (512,), 1e-3, 8.0, 128)
    f = bump(g)
    d = decompose(f, np.inf, ConeSpec(1.0, 1.0))
    assert d.terms
    assert sum(a.block.size for _, a in d.terms) \
        <= 0.05 * len(d.terms) * g.n_spatial * g.nt
    assert np.max(np.abs(reconstruct(d).values - f.values)) <= 1e-12 * f.values.max()


def test_decompose_sup_keeps_two_tents_alive():
    # a 1024x256 bump: with all L tents (262 kB each) alive at once the
    # traced allocations peaked at 30.6 MiB, with two at a time at 13.7 MiB
    g = HalfSpaceGrid(((-8.0, 8.0),), (1024,), 1e-3, 8.0, 256)
    f = random_bump(g, np.random.default_rng(0))
    tracemalloc.start()
    try:
        d = decompose(f, np.inf, ConeSpec(1.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.terms) == 216
    assert peak < 20 * 2 ** 20


def test_decompose_sup_zero(grid_small):
    d = decompose(GridFunction.zero(grid_small), np.inf, ConeSpec(1.0, 1.0))
    assert d.terms == []


# -- persistence -----------------------------------------------------------

def test_export_import_roundtrip(grid_small, tmp_path):
    spec = ConeSpec(1.0, 1.0)
    f = tent_indicator(grid_small, spec, 0.5, 0.4)
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


@pytest.mark.parametrize("dim", [1, 2])
def test_atom_files_are_the_bytes_of_the_expanded_atoms(tmp_path, dim):
    # a file holds its box's rows and leaves the rest a hole: boxes at the
    # first and the last row, inside, over every row, empty, and a -0.0
    g = HalfSpaceGrid(((-4.0, 4.0),) * dim, (12,) * dim, 1e-2, 4.0, 6)
    n, rng = g.n_spatial, np.random.default_rng(dim)

    def on(rows, cols=slice(None)):
        v = np.zeros((n, g.nt))
        v[rows, cols] = rng.uniform(-1.0, 1.0, v[rows, cols].shape)
        return v

    signed = on(slice(n - 3, n - 1), slice(1, 3))
    signed[n - 1, 4] = -0.0
    values = [on(slice(0, 1), slice(2, 5)), on(slice(n - 2, n)), on(slice(3, 7), 0),
              on(slice(0, n)), signed, np.zeros((n, g.nt))]
    ball = Ball((0.0,) * dim, 1.0)
    atoms = [Atom.crop(GridFunction(g, v), ball, 2.0) for v in values]
    assert [(a.box[0].start, a.box[0].stop) for a in atoms] \
        == [(0, 1), (n - 2, n), (3, 7), (0, n), (n - 3, n), (0, 0)]
    spec = ConeSpec(1.0, 1.0)
    manifest = export_decomposition(
        atomic.Decomposition([(1.0, a) for a in atoms], 1.0, 2.0, spec), tmp_path / "dec")
    terms = json.loads(manifest.read_text())["terms"]
    for entry, a in zip(terms, atoms):
        write_grid_function(a.expand(), tmp_path / "dense.gtnt")
        assert (tmp_path / "dec" / entry["atom_file"]).read_bytes() \
            == (tmp_path / "dense.gtnt").read_bytes()


def test_an_empty_decomposition_exports_its_manifest_alone(grid_small, tmp_path):
    d = decompose(GridFunction.zero(grid_small), np.inf, ConeSpec(1.0, 1.0))
    manifest = export_decomposition(d, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["decomposition.json"]
    assert json.loads(manifest.read_text())["terms"] == []


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
    f = {"bump": lambda: bump(g),
         "tent": lambda: tent_indicator(g, spec, 0.5, 0.4),
         "signed": lambda: GridFunction(g, bump(g).values - 0.5 * bump(g, -0.3).values),
         }[name]()
    d = decompose(f, np.inf, spec) if sup else decompose(f, 2.0, spec)
    manifest = json.loads(export_decomposition(d, tmp_path).read_text())
    files = [tmp_path / e["atom_file"] for e in manifest["terms"]]
    digests = "".join(hashlib.sha256(p.read_bytes()).hexdigest() for p in files)
    assert (len(files), hashlib.sha256(digests.encode()).hexdigest(),
            hashlib.sha256(reconstruct(d).values.tobytes()).hexdigest()) \
        == _PINNED_BYTES[(name, sup)]
    neg_zeros = sum(int(np.sum(np.signbit(v) & (v == 0.0)))
                    for v in (read_grid_function(p).values for p in files))
    assert neg_zeros == (192 if (name, sup) == ("signed", False) else 0)


def test_decompose_on_a_2d_box_where_gamma_underflows():
    # on [-32, 32]^2 the doubling sup meets dictionary balls whose gamma(B)
    # is 0 in floats; it skips them, and the disc decomposes in full
    L = 32.0
    g = HalfSpaceGrid(((-L, L),) * 2, (16, 16), 1e-3, 8.0, 4)
    disc = np.linalg.norm(g.points, axis=1) < L / 3
    f = GridFunction(g, np.repeat(disc[:, None], g.nt, axis=1).astype(float))
    d = decompose(f, 2.0, ConeSpec(1.0, 1.0))
    assert len(d.terms) > 0 and d.unassigned == 0 and d.residual_mass == 0.0
    assert np.max(np.abs(reconstruct(d).values - f.values)) <= 1e-12
