"""Acceptance battery: one test per criterion, one printed pass/fail line each.

Each test prints a single `[criterion NN] name: PASS/FAIL` line (visible in
the run log via the -rP report option) and then asserts, so a failure is
both visible and fatal.  Tolerances are the agreed desk-scale ones on the
default 512 x 128 grid; refinement checks use a 1024 x 256 grid.
"""

import json
import time

import numpy as np
import pytest

from gausstent.cli import RunConfig, main
from gausstent.families import boundary_atom, random_atom, random_bump, tent_indicator
from gausstent.geometry import (
    Ball, ConeSpec, compare_tents, cutoff_m, gamma_ball_bounds_check,
)
from gausstent.grid import (
    GridFunction, HalfSpaceGrid, RegionMask, halfspace_integral,
)
from gausstent.functionals import (
    ExponentPair, carleson_C, default_dictionary, stopping_time, tent_norm,
    tent_norms,
)
from gausstent.whitney import (
    density_inequality_check, doubling_constant, etabar_from_doubling,
    reverse_fubini_check,
)
from gausstent.atomic import (
    coefficient_report, decompose, reconstruct, validate_atom,
)
from gausstent.duality import (
    DiscreteMeasure, carleson_norm, check_carleson_pairing, check_duality_1q,
    check_duality_pq, measured_K_beta, stopping_density,
)
from gausstent.embedding import check_h1_atom


@pytest.fixture(scope="module")
def grid():
    return RunConfig().grid()


@pytest.fixture(scope="module")
def grid_fine():
    return HalfSpaceGrid(((-8.0, 8.0),), (1024,), 1e-3, 8.0, 256)


def _line(idx, name, ok, detail=""):
    print(f"[criterion {idx:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))


def _bump_sum(g, rng, n_max=3, span=2.0):
    y, t = g.points[:, 0], g.t
    vals = np.zeros((g.n_spatial, g.nt))
    for _ in range(rng.integers(1, n_max + 1)):
        y0 = rng.uniform(-span, span)
        t0 = np.exp(rng.uniform(np.log(0.01), 0.0))
        wy = rng.uniform(0.3, 0.8)
        amp = rng.uniform(0.5, 2.0)
        p = amp * np.exp(-((y[:, None] - y0) / wy) ** 2) \
            * np.exp(-np.log(t[None, :] / t0) ** 2)
        p[np.abs(y - y0) > 2.0 * wy, :] = 0.0
        vals += p
    return GridFunction(g, vals)


def _decomposition_family(g, spec):
    fns = [tent_indicator(g, spec, c, r) * amp for c, r, amp in
           ((0.5, 0.4, 1.0), (-0.8, 0.3, 2.0), (1.5, 0.5, 0.7),
            (0.0, 0.8, 1.3), (1.0, 0.6, 1.0))]
    rng = np.random.default_rng(7)
    fns += [_bump_sum(g, rng) for _ in range(5)]
    return fns


# 1. atom bound ------------------------------------------------------------

def test_criterion_01_atom_area_bound(grid):
    spec = ConeSpec(1.0, 1.0)
    rng = np.random.default_rng(42)
    qs = (1.0, 2.0, 4.0, np.inf)
    t0 = time.time()
    worst = 0.0
    for i in range(50):
        a = random_atom(grid, spec, qs[i % 4], rng)
        rep = validate_atom(a, spec)
        assert rep["support_ok"] and rep["norm_ok"]
        worst = max(worst, rep["area_l1"])
    elapsed = time.time() - t0
    ok = worst <= 1.05 and elapsed <= 60.0
    _line(1, "atom area bound", ok,
          f"max ||S a||_L1 = {worst:.4f}, {elapsed:.1f}s")
    assert ok


# 2. atomic decomposition --------------------------------------------------

def test_criterion_02_atomic_decomposition(grid, grid_fine):
    spec = ConeSpec(1.0, 1.0)

    def ratios(g):
        out = []
        for f in _decomposition_family(g, spec):
            d = decompose(f, 2.0, spec)
            r = reconstruct(d)
            covered = r.values != 0.0
            assert np.max(np.abs((r.values - f.values) * covered)) <= 1e-12
            assert d.residual_mass < 1e-10
            for _, a in d.terms:
                assert validate_atom(a, spec)["all_ok"]
            out.append(coefficient_report(d)["ratio"])
        return np.array(out)

    rc = ratios(grid)
    rf = ratios(grid_fine)
    spread = rc.max() / rc.min()
    drift = np.max(np.abs(rf / rc - 1.0))
    ok = np.all(np.isfinite(rc)) and spread <= 3.0 and drift < 0.2
    _line(2, "atomic decomposition", ok,
          f"ratio spread {spread:.2f}, refinement drift {drift:.3f}")
    assert ok


# 3. T^{p,p} = L^p ---------------------------------------------------------

def test_criterion_03_tpp_equals_lp(grid):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        f = _bump_sum(grid, rng)
        for p in (1.0, 2.0, 3.0):
            norm = tent_norm(f, ExponentPair(p, p), ConeSpec(1.0, 1.0))
            direct = halfspace_integral(
                GridFunction(grid, np.abs(f.values) ** p)) ** (1.0 / p)
            worst = max(worst, abs(norm - direct) / direct)
    ok = worst <= 1e-9
    _line(3, "T^{p,p} = L^p identity", ok, f"max rel err {worst:.2e}")
    assert ok


# 4. tent geometry ---------------------------------------------------------

def test_criterion_04_tent_geometry():
    rng = np.random.default_rng(4)
    off_axis = 0
    n_balls = 0
    for beta in (1.0, 2.0):
        while n_balls < (5 if beta == 1.0 else 10):
            c = float(rng.uniform(1.8, 4.0) * rng.choice((-1.0, 1.0)))
            r = float(rng.uniform(0.4, 0.8)) * beta * cutoff_m(c)
            if abs(c) - r < np.sqrt(beta):
                continue
            B = Ball((c,), r)
            ys, ts = np.array([(rng.uniform(c - 2 * r, c + 2 * r),
                                np.exp(rng.uniform(np.log(1e-3), np.log(8.0))))
                               for _ in range(10_000)]).T
            rep = compare_tents(B, ConeSpec(1.0, beta), ys[:, None], ts)
            assert rep["preconditions_ok"]
            off_axis += rep["n_off_axis"]
            n_balls += 1
    ok = off_axis == 0
    _line(4, "tent geometry agreement", ok,
          f"{off_axis} off-axis disagreements over 10 balls x 1e4 samples")
    assert ok


# 5. comparison lemma ------------------------------------------------------

def test_criterion_05_comparison_lemma():
    from gausstent.geometry import comparison_lemma_check
    rng = np.random.default_rng(5)
    n = 100_000
    yv = rng.uniform(-6, 6, size=n)
    b = rng.choice((0.5, 1.0, 2.0), size=n)
    my = np.minimum(1.0, 1.0 / np.abs(yv))
    xv = yv + rng.uniform(-1, 1, size=n) * 0.999999 * b * my
    mx = np.minimum(1.0, 1.0 / np.abs(xv))
    violations = int(np.sum(~((my < (b + 1) * mx) & (mx < (b + 1) * my))))
    # spot-check the scalar API agrees with the vectorized sweep
    for i in range(0, n, 10_000):
        assert comparison_lemma_check((xv[i],), (yv[i],), float(b[i]))
    ok = violations == 0
    _line(5, "comparison lemma", ok, f"{violations} violations in 1e5 pairs")
    assert ok


# 6. ball-measure bracket --------------------------------------------------

def test_criterion_06_ball_measure_bracket():
    rng = np.random.default_rng(6)
    violations = 0
    for _ in range(1000):
        c = rng.uniform(-7, 7)
        beta = rng.choice((0.5, 1.0, 2.0))
        r = rng.uniform(0.01, 1.0) * beta * cutoff_m(c)
        if not gamma_ball_bounds_check((c,), r, beta):
            violations += 1
    ok = violations == 0
    _line(6, "ball-measure bracket", ok, f"{violations} violations in 1e3 balls")
    assert ok


# 7. density-point and reverse-Fubini inequalities -------------------------

def test_criterion_07_density_and_reverse_fubini(grid):
    spec = ConeSpec(1.0, 1.0)
    cases = ((-2.0, 2.0, 0.5), (-2.2, 1.8, 0.7), (0.0, 3.0, 0.5),
             (-3.0, 0.5, 0.6), (-1.5, 2.5, 0.8))
    coarse = HalfSpaceGrid(((-8.0, 8.0),), (256,), 1e-3, 8.0, 64)

    def ratios(g):
        d2 = default_dictionary(g, 2.0)
        d1 = default_dictionary(g, 1.0)
        etabar = etabar_from_doubling(doubling_constant(2.0, d2))
        rng = np.random.default_rng(11)
        y = g.points[:, 0]
        dens, fub = [], []
        for lo, hi, eta in cases:
            A = RegionMask(g, (lo < y) & (y < hi))
            vals = rng.random((g.n_spatial, g.nt))
            vals[np.abs(y) > 3.5, :] = 0.0
            H = GridFunction(g, vals)
            dens.append(density_inequality_check(A, H, eta, etabar, spec,
                                                 d2)["ratio"])
            fub.append(reverse_fubini_check(A, H, 0.9, spec, 2.0, d1)["ratio"])
        return np.array(dens), np.array(fub)

    dc, fc = ratios(coarse)
    df, ff = ratios(grid)
    finite = np.all(np.isfinite(df)) and np.all(np.isfinite(ff)) \
        and np.all(df > 0) and np.all(ff > 0)
    drift = max(np.max(np.abs(df / dc - 1.0)), np.max(np.abs(ff / fc - 1.0)))
    ok = finite and drift < 0.2
    _line(7, "density-point and reverse-Fubini ratios", ok,
          f"max refinement drift {drift:.3f}")
    assert ok


# 8. duality inequalities --------------------------------------------------

def test_criterion_08_duality(grid):
    spec = ConeSpec(1.0, 1.0)
    rng = np.random.default_rng(8)
    # conjugate-pair chain on 100 pairs
    combos = ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0))
    n_fail = 0
    for i in range(100):
        p, q = combos[i % 3]
        f, g = _bump_sum(grid, rng), _bump_sum(grid, rng)
        rep = check_duality_pq(f, g, p, q, spec)
        if not (rep["identity_ok"] and rep["holder1_ok"] and rep["holder2_ok"]):
            n_fail += 1
    # T^1 x C_{q'} route: constants finite and family-stable; the pair
    # shares a support center so the empirical constant is nondegenerate
    d = default_dictionary(grid, 1.0)
    y, t = grid.points[:, 0], grid.t

    def centered_bump(y0):
        t0 = np.exp(rng.uniform(np.log(0.01), 0.0))
        wy = rng.uniform(0.3, 0.8)
        v = rng.uniform(0.5, 2.0) \
            * np.exp(-((y[:, None] - y0) / wy) ** 2) \
            * np.exp(-np.log(t[None, :] / t0) ** 2)
        v[np.abs(y - y0) > 2.0 * wy, :] = 0.0
        return GridFunction(grid, v)

    consts = []
    for _ in range(5):
        y0 = rng.uniform(-2, 2)
        rep = check_duality_1q(centered_bump(y0), centered_bump(y0), 2.0,
                               spec, d)
        consts.append(rep["C_emp"])
    consts = np.array(consts)
    family_ok = np.all(np.isfinite(consts)) and consts.max() / consts.min() < 100.0
    # measure pairing: constant finite and stable under dictionary refinement
    pts = tuple(((float(rng.uniform(-2, 2)),),
                 float(np.exp(rng.uniform(np.log(0.01), 0.0))),
                 float(rng.uniform(0.1, 1.0))) for _ in range(15))
    mu = DiscreteMeasure(pts)
    f = _bump_sum(grid, rng)
    d4 = default_dictionary(grid, 1.0, stride=4)
    d2 = default_dictionary(grid, 1.0, stride=2)
    c4 = check_carleson_pairing(mu, f, spec, carleson_norm(mu, spec, 1.0, d4)["norm"])["C_emp"]
    c2 = check_carleson_pairing(mu, f, spec, carleson_norm(mu, spec, 1.0, d2)["norm"])["C_emp"]
    mu_ok = np.isfinite(c4) and np.isfinite(c2) and 0.5 < c4 / c2 < 2.0
    ok = n_fail == 0 and family_ok and mu_ok
    _line(8, "duality inequalities", ok,
          f"{n_fail}/100 chain failures, C_1q spread "
          f"{consts.max() / consts.min():.2f}, mu-constant ratio {c4 / c2:.3f}")
    assert ok


# 9. stopping-time density -------------------------------------------------

def test_criterion_09_stopping_density(grid):
    spec = ConeSpec(1.0, 1.0)
    d = default_dictionary(grid, 1.0)
    K = measured_K_beta(spec, d)
    qp = 2.0
    M = 2.0 * K ** (1.0 / qp)
    rng = np.random.default_rng(9)
    lam_min = 1.0
    for _ in range(5):
        g = _bump_sum(grid, rng)
        cq = carleson_C(g, qp, spec, d)
        h = stopping_time(g, qp, spec, M,
                          np.geomspace(grid.t_min, grid.t_max, 16), cq)
        rep = stopping_density(h, spec, d)
        lam_min = min(lam_min, rep["lambda_M_min"])
    ok = lam_min > 0.0
    _line(9, "stopping-time density", ok,
          f"min lambda_M = {lam_min:.4f} over 5 functions x "
          f"{len(d.radii)} balls")
    assert ok


# 10. aperture independence ------------------------------------------------

def test_criterion_10_independence(grid, grid_fine):
    pq = ExponentPair(1.0, 2.0)
    apertures = (0.5, 1.0, 2.0)

    def sweep(g):
        rng = np.random.default_rng(42)
        out = []
        for _ in range(5):
            f = random_bump(g, rng)
            norms = np.array(tent_norms(f, pq, [ConeSpec(a, b)
                                                for a in apertures for b in apertures]))
            assert np.all(np.isfinite(norms)) and np.all(norms > 0)
            out.append(norms.max() / norms.min())
        return np.array(out)

    sc = sweep(grid)
    sf = sweep(grid_fine)
    drift = np.max(np.abs(sf / sc - 1.0))
    ok = sc.max() < 100.0 and drift < 0.2
    _line(10, "aperture independence", ok,
          f"max norm ratio {sc.max():.2f}, refinement drift {drift:.4f}")
    assert ok


# 11. convolution-operator atom checks -------------------------------------

def test_criterion_11_pi_phi_atoms(grid):
    spec = ConeSpec(1.0, 1.0)
    rng = np.random.default_rng(11)
    support_fail = 0
    avg_fail = 0
    consts = []
    for _ in range(20):
        a = random_atom(grid, spec, 2.0, rng)
        rep = check_h1_atom(a)
        support_fail += not rep["support_ok"]
        avg_fail += not rep["average_ok"]
        consts.append(rep["l2_constant"])
    consts = np.array(consts)
    stable = np.all(np.isfinite(consts)) \
        and consts.max() / max(consts.min(), 1e-300) < 100.0
    # the truncation-removed mutation must fail the support check; this
    # needs a node-centered ball at the admissibility boundary so the
    # tent carries the full axis column
    sentinel = boundary_atom(grid, spec)
    assert check_h1_atom(sentinel, local=True)["support_ok"]
    sentinel_fails = not check_h1_atom(sentinel, local=False)["support_ok"]
    ok = support_fail == 0 and avg_fail == 0 and stable and sentinel_fails
    _line(11, "convolution-operator atom checks", ok,
          f"{support_fail} support / {avg_fail} average failures, "
          f"constant spread {consts.max() / consts.min():.2f}, "
          f"sentinel failed support: {sentinel_fails}")
    assert ok


# 12. determinism ----------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "verify"]) == 0
    assert main(["--out", str(out2), "verify"]) == 0
    r1 = json.loads((out1 / "verify.json").read_text())
    r2 = json.loads((out2 / "verify.json").read_text())
    r1.pop("timestamp")
    r2.pop("timestamp")
    ok = r1 == r2
    _line(12, "verify determinism", ok, "reports identical modulo timestamp")
    assert ok
