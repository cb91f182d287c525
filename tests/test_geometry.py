import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from gausstent.geometry import (
    AdmissibilityError, Ball, ConeSpec, UpperPoint, _MAXLOG, _ball_tent, _erfc,
    _gamma_balls, _pencil_caps,
    ball_tent_contains, classical_tent_contains, compare_tents,
    comparison_lemma_check, cone_contains, cutoff_m, gamma_ball,
    gamma_ball_bounds_check, is_admissible, lebesgue_ball,
)
from gausstent.grid import HalfSpaceGrid


# -- cutoff scale ----------------------------------------------------------

def test_cutoff_basic():
    assert cutoff_m(0.0) == 1.0
    assert cutoff_m(0.5) == 1.0
    assert cutoff_m(1.0) == 1.0
    assert cutoff_m(4.0) == 0.25
    assert cutoff_m((-4.0,)) == 0.25
    assert cutoff_m((3.0, 4.0)) == 0.2


@given(st.floats(-50, 50, allow_nan=False))
def test_cutoff_range_and_symmetry(x):
    m = cutoff_m(x)
    assert 0 < m <= 1
    assert m == cutoff_m(-x)


@given(st.floats(-20, 20), st.floats(-20, 20))
def test_cutoff_quasi_lipschitz(x, y):
    # |m(x) - m(y)| <= |x - y| in one dimension
    assert abs(cutoff_m(x) - cutoff_m(y)) <= abs(x - y) + 1e-12


@pytest.mark.parametrize("box,nx", [(((-8.0, 8.0),), (128,)),
                                    (((-3.0, 5.0), (-2.0, 1.5)), (48, 48))])
def test_cutoff_arrays_match_grid_and_points(box, nx):
    # one formula for m: the array call, each point's scalar call and the
    # grid's m_y agree bit for bit, in 2-D too
    g = HalfSpaceGrid(box, nx, 1e-3, 8.0, 4)
    m = cutoff_m(g.points)
    assert m.shape == (g.n_spatial,)
    assert np.array_equal(m, g.m_y)
    assert np.array_equal(m, [cutoff_m(y) for y in g.points])


def test_cutoff_rejects_non_finite_points():
    with pytest.raises(ValueError):
        cutoff_m(np.array([[0.0, 1.0], [np.nan, 2.0]]))


# -- gamma of balls --------------------------------------------------------

def test_gamma_kernel_1d_is_the_scalar_closed_form(rng):
    from scipy.special import erfc
    centers = rng.uniform(-10.0, 10.0, size=(5000, 1))
    radii = np.exp(rng.uniform(np.log(1e-4), np.log(40.0), size=5000))
    got = _gamma_balls(centers, radii)
    want = [np.sqrt(np.pi) / 2.0 * (erfc(abs(c) - r) - erfc(abs(c) + r))
            for c, r in zip(centers[:, 0].tolist(), radii.tolist())]
    assert np.array_equal(got, want)
    assert np.array_equal(got[:200], [gamma_ball(Ball(tuple(c), r))
                                      for c, r in zip(centers[:200], radii[:200])])


def test_erfc_is_scipys_to_the_bit():
    # scipy's erfc is Cephes' rational approximation with libm's exp; the
    # port must return the same float for every input, so the oracle is ==
    from scipy.special import erfc
    rng = np.random.default_rng(2024)
    sign = rng.choice((-1.0, 1.0), size=200_000)
    edges = np.array([1.0, 8.0, np.sqrt(_MAXLOG)])
    a = np.concatenate([
        rng.uniform(-30.0, 30.0, 400_000),
        rng.normal(0.0, 3.0, 300_000),
        # every binade from the subnormals up, both signs
        sign * np.exp(rng.uniform(-745.0, 3.5, 200_000)),
        # the branch edges at |a| = 1 and 8 and the underflow edge
        np.concatenate([e + rng.uniform(-1e-6, 1e-6, 50_000) for e in edges])
        * rng.choice((-1.0, 1.0), size=150_000),
        np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 30.0)]),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 26.55, -26.55,
         1e300, -1e300],
    ])
    a = np.concatenate([a, -a])
    assert a.size > 1_000_000
    assert np.array_equal(_erfc(a), erfc(a), equal_nan=True)


def test_gamma_kernel_2d_matches_noncentral_chi2(rng):
    # |Y|^2 with Y ~ N(c, I/2) is a noncentral chi^2 over 2, so
    # gamma(B(c, r)) = pi * P(2|Y|^2 < 2 r^2), df 2, noncentrality 2|c|^2
    from scipy.stats import ncx2
    centers = rng.uniform(-6.0, 6.0, size=(40, 2))
    radii = np.concatenate([np.exp(rng.uniform(np.log(0.01), np.log(40.0), 36)),
                            [19.0, 38.0, 40.0, 0.5]])
    got = _gamma_balls(centers, radii)
    want = np.pi * ncx2.cdf(2.0 * radii ** 2, 2, 2.0 * np.sum(centers ** 2, axis=1))
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)
    assert got[0] == gamma_ball(Ball(tuple(centers[0]), radii[0]))


def _simpson_gamma_1d(c, r, n=20001):
    xs = np.linspace(c - r, c + r, n)
    from scipy.integrate import simpson
    return simpson(np.exp(-xs * xs), x=xs)


@pytest.mark.parametrize("c,r", [(0.0, 1.0), (2.0, 0.5), (-3.0, 0.3), (7.5, 0.12)])
def test_gamma_ball_1d_quadrature_oracle(c, r):
    got = gamma_ball(Ball((c,), r))
    want = _simpson_gamma_1d(c, r)
    assert got == pytest.approx(want, rel=1e-10)


def test_gamma_ball_1d_far_tail_positive():
    # both erf(c +- r) round to 1 here; the erfc form must not cancel to 0
    g = gamma_ball(Ball((8.0,), 0.1))
    assert 0 < g < 1e-25
    assert g == pytest.approx(gamma_ball(Ball((-8.0,), 0.1)), rel=1e-12)


def test_gamma_ball_total_mass_1d():
    assert gamma_ball(Ball((0.0,), 40.0)) == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_gamma_ball_2d_centered_closed_form():
    # at the origin the radial integral is exactly pi (1 - e^{-r^2})
    for r in (0.3, 1.0, 2.5):
        want = np.pi * (1.0 - np.exp(-r * r))
        assert gamma_ball(Ball((0.0, 0.0), r)) == pytest.approx(want, rel=1e-10)


def test_gamma_ball_2d_offcenter_oracle():
    # 2-D tensor quadrature oracle over the bounding square, disc indicator
    c = np.array([1.2, -0.7])
    r = 0.8

    def inner(x):
        half = np.sqrt(max(r * r - (x - c[0]) ** 2, 0.0))
        val, _ = quad(lambda y: np.exp(-x * x - y * y),
                      c[1] - half, c[1] + half, epsrel=1e-11)
        return val

    want, _ = quad(inner, c[0] - r, c[0] + r, epsrel=1e-9, limit=200)
    assert gamma_ball(Ball(tuple(c), r)) == pytest.approx(want, rel=1e-7)


def test_lebesgue_ball():
    assert lebesgue_ball(Ball((0.0,), 2.0)) == 4.0
    assert lebesgue_ball(Ball((0.0, 0.0), 2.0)) == pytest.approx(4 * np.pi)


# -- admissibility and the measure bracket ---------------------------------

def test_admissibility_boundary_included():
    assert is_admissible(Ball((4.0,), 0.25), 1.0)
    assert not is_admissible(Ball((4.0,), 0.2500001), 1.0)
    assert is_admissible(Ball((0.0,), 2.0), 2.0)


def test_bracket_rejects_non_admissible():
    with pytest.raises(AdmissibilityError):
        gamma_ball_bounds_check((4.0,), 1.0, 1.0)


def test_bracket_holds_random(rng):
    for _ in range(300):
        c = rng.uniform(-6, 6)
        beta = rng.choice((0.5, 1.0, 2.0))
        r = rng.uniform(0.02, 1.0) * beta * cutoff_m(c)
        assert gamma_ball_bounds_check((c,), r, beta)


def test_array_checks_equal_the_one_point_checks(rng):
    # verify checks all its draws in one call; each entry must be the
    # one-point answer, and one bad pair or ball among many is still an error
    y = rng.uniform(-5, 5, 400)
    b = rng.choice((0.5, 1.0, 2.0), 400)
    x = y + rng.uniform(-1, 1, 400) * b * cutoff_m(y[:, None]) * 0.999999
    assert comparison_lemma_check(x[:, None], y[:, None], b).tolist() \
        == [comparison_lemma_check((xi,), (yi,), bi) for xi, yi, bi in zip(x, y, b)]
    r = rng.uniform(0.05, 1.0, 400) * b * cutoff_m(y[:, None])
    assert gamma_ball_bounds_check(y[:, None], r, b).tolist() \
        == [gamma_ball_bounds_check((yi,), ri, bi) for yi, ri, bi in zip(y, r, b)]
    x[7] = y[7] + 2.0 * b[7]
    with pytest.raises(ValueError):
        comparison_lemma_check(x[:, None], y[:, None], b)
    r[7] = 1.5 * b[7] * cutoff_m(y[7])
    with pytest.raises(AdmissibilityError):
        gamma_ball_bounds_check(y[:, None], r, b)


# -- cones and tents -------------------------------------------------------

def test_cone_strict_boundary():
    spec = ConeSpec(1.0, 1.0)
    # |y - x| = t exactly: excluded
    assert not cone_contains(0.0, spec, UpperPoint((0.5,), 0.5))
    assert cone_contains(0.0, spec, UpperPoint((0.5,), 0.5000001))
    # cap by beta m(y)
    assert not cone_contains(3.0, spec, UpperPoint((3.5,), 5.0))  # m(3.5) < 0.5


def test_cone_variants_differ():
    # the pencil cap beta*m(y) is taken at the point, not at the vertex
    pencil = ConeSpec(1.0, 1.0)
    p = UpperPoint((0.2,), 5.0)  # near the origin, m(y) = 1
    assert cone_contains(0.0, pencil, p)
    q = UpperPoint((4.0,), 5.0)  # m(y) = 0.25 caps the pencil cone
    assert not cone_contains(4.3, pencil, q)


def test_tent_nonstrict_boundary():
    B = Ball((0.0,), 1.0)
    # depth 0.5 at y = 0.5; t = 0.5 sits exactly on the boundary: included
    assert ball_tent_contains(B, 1.0, 1.0, UpperPoint((0.5,), 0.5))
    assert not ball_tent_contains(B, 1.0, 1.0, UpperPoint((0.5,), 0.5000001))
    assert classical_tent_contains(B, 1.0, UpperPoint((0.5,), 0.5))


def test_tent_outside_ball_excluded():
    B = Ball((0.0,), 1.0)
    assert not ball_tent_contains(B, 1.0, 1.0, UpperPoint((1.5,), 1e-6))


def test_compare_tents_agreement_off_axis(rng):
    # admissible ball far from the origin: tents coincide off the axis
    B = Ball((3.0,), 0.25)
    ys = rng.uniform(2, 4, (3000, 1))
    ts = rng.uniform(1e-3, 4.0, 3000)
    rep = compare_tents(B, 1.0, 1.0, ys, ts)
    assert rep["preconditions_ok"]
    assert rep["n_off_axis"] == 0


def test_compare_tents_axis_disagreement_possible():
    # boundary-admissible ball: the axis column diverges between the tents
    c = 3.0
    B = Ball((c,), cutoff_m(c))
    p = UpperPoint((c,), 2.0)  # classical needs t <= r; gaussian caps at m(c)
    gau = ball_tent_contains(B, 1.0, 1.0, p)
    cla = classical_tent_contains(B, 1.0, p)
    assert gau != cla
    rep = compare_tents(B, 1.0, 1.0, [p.y], [p.t])
    assert rep["n_off_axis"] == 0
    assert len(rep["disagreements"]) == 1
    assert rep["disagreements"][0]["on_axis"]


def test_compare_tents_lists_the_one_point_disagreements_in_order(rng):
    # a ball near the origin breaks the preconditions, so the tents differ
    # off the axis too; the array pass must list what the one-point
    # predicates say, sample by sample
    B = Ball((0.4,), 1.5)
    ys = np.r_[rng.uniform(-1.5, 2.5, 2000), np.full(20, 0.4)][:, None]
    ts = np.exp(rng.uniform(np.log(1e-3), np.log(8.0), ys.shape[0]))
    rep = compare_tents(B, 1.0, 0.5, ys, ts)
    want = []
    for y, t in zip(ys.tolist(), ts.tolist()):
        p = UpperPoint(tuple(y), t)
        g, c = ball_tent_contains(B, 1.0, 0.5, p), classical_tent_contains(B, 1.0, p)
        if g != c:
            want.append({"y": p.y, "t": t, "gaussian": g, "classical": c,
                         "on_axis": abs(y[0] - 0.4) <= 1e-12})
    assert rep["disagreements"] == want
    assert rep["n_off_axis"] == sum(not w["on_axis"] for w in want) > 0
    assert any(w["on_axis"] for w in want)


def _written_out_tent(B, alpha, beta, ys, ts):
    """dist(y, B^c) >= min(alpha t, beta m(y)), distances by a sum of squares."""
    d = ys - B.center_array
    depth = np.maximum(B.radius - np.sqrt((d * d).sum(axis=-1)), 0.0)
    return depth >= np.minimum(alpha * ts, beta * cutoff_m(ys))


@pytest.mark.parametrize("n", [1, 2])
def test_tent_predicate_matches_the_written_out_tent(rng, n):
    # half the heights sit exactly on the cap the depth allows, where the
    # non-strict inequality decides
    for c, r, beta in ((0.4, 1.5, 0.5), (3.0, 0.25, 1.0), (-2.5, 0.3, 2.0)):
        B = Ball((c,) * n, r)
        ys = c + rng.uniform(-1.5 * r, 1.5 * r, (20000, n))
        ts = np.exp(rng.uniform(np.log(1e-3), np.log(8.0), 20000))
        depth = np.maximum(r - np.sqrt(((ys - c) ** 2).sum(axis=-1)), 0.0)
        ts[::2] = np.where(depth[::2] > 0, depth[::2], ts[::2])
        for b in (beta, np.inf):
            want = _written_out_tent(B, 1.0, b, ys, ts)
            caps = _pencil_caps(1.0, b, ys, ts)[:, None]
            assert np.array_equal(_ball_tent(ys, B.center_array, r, caps)[:, 0], want)
        gau, cla = (_written_out_tent(B, 1.0, b, ys, ts) for b in (beta, np.inf))
        rep = compare_tents(B, 1.0, beta, ys, ts)
        assert [(d["y"], d["t"]) for d in rep["disagreements"]] \
            == [(tuple(ys[i].tolist()), ts[i]) for i in np.flatnonzero(gau != cla)]


def test_compare_tents_warnings():
    rep = compare_tents(Ball((0.1,), 0.5), 1.0, 0.5, np.empty((0, 1)), [])
    assert "beta < 1" in rep["warnings"]
    assert any("sqrt" in w for w in rep["warnings"])
    assert not rep["preconditions_ok"]


# -- comparison lemma ------------------------------------------------------

@given(st.floats(-10, 10), st.floats(0.01, 0.999),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_comparison_lemma_property(y, frac, b):
    x = y + frac * b * cutoff_m(y)
    assert comparison_lemma_check((x,), (y,), b)


def test_comparison_lemma_rejects_bad_hypothesis():
    with pytest.raises(ValueError):
        comparison_lemma_check((2.0,), (0.0,), 1.0)  # |x-y| = 2 >= 1*m(0)
    with pytest.raises(ValueError):
        comparison_lemma_check((0.0,), (0.0,), -1.0)
