import ast
import importlib
import inspect
import pkgutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import gausstent
from gausstent._kernels import (
    _MAXLOG, _ball_tent, _cone_windows, _erfc, _gamma_balls, _window_bounds,
)
from gausstent.geometry import (
    Ball, ConeSpec, compare_tents, comparison_lemma_check, cutoff_m,
    gamma_ball, gamma_ball_bounds_check, is_admissible,
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


def _quad_gamma_2d(c, r):
    """The radial integral of gamma(B(c, r)): 2 pi s exp(-(|c| - s)^2)
    i0e(2 s |c|) over [0, r]."""
    from scipy.special import i0e
    a = float(np.hypot(*c))
    return quad(lambda s: 2.0 * np.pi * s * np.exp(-(a - s) ** 2) * i0e(2.0 * a * s),
                0.0, r, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def test_gamma_kernel_2d_tail_matches_quad(rng):
    # far from the origin ncx2's cdf loses its relative precision (it gives 0
    # for 17 of these balls), while the radial integral keeps it down to
    # gamma ~ 1e-60
    rho = rng.uniform(0.0, 11.3, 300)
    phi = rng.uniform(0.0, 2.0 * np.pi, 300)
    centers = np.stack([rho * np.cos(phi), rho * np.sin(phi)], axis=1)
    radii = np.exp(rng.uniform(np.log(0.01), np.log(3.0), 300))
    got = _gamma_balls(centers, radii)
    want = [_quad_gamma_2d(c, r) for c, r in zip(centers, radii)]
    assert min(want) < 1e-50
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_gamma_kernel_2d_at_the_origin_warns_nothing():
    # |c| = 0 makes J ~ Poisson(0) the point mass at 0: no 0 * log 0
    radii = np.array([1e-3, 0.05, 0.3, 1.0, 4.0, 6.4, 6.6, 40.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _gamma_balls(np.zeros((radii.size, 2)), radii)
        assert gamma_ball(Ball((0.0, 0.0), 0.3)) == got[2]
    assert np.allclose(got, -np.pi * np.expm1(-radii ** 2), rtol=1e-10, atol=0.0)


def test_gamma_ball_2d_rounds_to_0_or_pi_past_the_sum():
    # gamma <= pi e^{-d^2} at distance d >= 27.5 from the origin rounds to 0;
    # a ball holding B(0, 6.5) is within pi e^{-42} of pi and rounds to pi
    assert gamma_ball(Ball((30.0, 0.0), 2.5)) == 0.0
    assert gamma_ball(Ball((0.0, 800.0), 1.0)) == 0.0
    assert gamma_ball(Ball((0.3, -0.4), 7.0)) == np.pi
    assert gamma_ball(Ball((800.0, 0.0), 810.0)) == np.pi
    # just short of either band the sum gives the same value
    assert 0.0 <= gamma_ball(Ball((29.99, 0.0), 2.5)) < 1e-300
    assert gamma_ball(Ball((0.3, -0.4), 6.99)) == pytest.approx(np.pi, rel=1e-15)


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


# -- admissibility and the measure bracket ---------------------------------

def test_admissibility_boundary_included():
    assert is_admissible((4.0,), 0.25, 1.0) is True
    assert is_admissible(4.0, 0.2500001, 1.0) is False
    assert is_admissible((0.0,), 2.0, 2.0)
    # many balls give one bool each
    got = is_admissible([[4.0], [4.0], [0.0], [-0.5]], [0.25, 0.2500001, 2.0, 1.0], 1.0)
    assert got.dtype == bool and got.tolist() == [True, False, False, True]


def test_bracket_rejects_non_admissible():
    with pytest.raises(ValueError, match="exceeds beta"):
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
    with pytest.raises(ValueError, match="exceeds beta"):
        gamma_ball_bounds_check(y[:, None], r, b)


# -- cones and tents -------------------------------------------------------

def _cone_vertices(axis, spec, y, t):
    """The vertices x on axis whose cone holds (y, t): the window
    |x - y| < min(alpha t, beta m(y)), the cap taken at the point y."""
    axis = np.asarray(axis)
    cap = spec.caps(cutoff_m(np.array([[y]])), np.array([t]))
    lo, hi = _window_bounds(axis, np.array([y]), cap)
    return axis[lo[0]:hi[0]].tolist()


def test_cone_strict_boundary():
    spec = ConeSpec(1.0, 1.0)
    # |y - x| = alpha t exactly: excluded
    assert _cone_vertices([0.0, 0.5, 1.0], spec, 0.5, 0.5) == [0.5]
    assert _cone_vertices([0.0, 0.5, 1.0], spec, 0.5, 0.5000001) == [0.0, 0.5, 1.0]
    # cap by beta m(y): m(3.5) < 0.5
    assert _cone_vertices([3.0, 3.5], spec, 3.5, 5.0) == [3.5]


def test_cone_variants_differ():
    # the pencil cap beta*m(y) is taken at the point, not at the vertex
    pencil = ConeSpec(1.0, 1.0)
    assert _cone_vertices([0.0, 0.2], pencil, 0.2, 5.0) == [0.0, 0.2]  # m(y) = 1
    # |x - y| = 0.45 < m(2) = 0.5, though m(x) = m(2.45) < 0.45
    assert cutoff_m(2.45) < 0.45
    assert _cone_vertices([2.0, 2.45], pencil, 2.0, 5.0) == [2.0, 2.45]
    assert _cone_vertices([4.0, 4.3], pencil, 4.0, 5.0) == [4.0]    # m(y) = 0.25
    # the cone windows of a grid's cells take m at the cell too
    g = HalfSpaceGrid(((-8.0, 8.0),), (321,), 1e-3, 5.0, 4)
    i = g.nearest_spatial_index(2.0)
    win = _cone_windows(g, pencil, np.array([i]), np.array([g.nt - 1]))
    assert g.nearest_spatial_index(2.45) in win.nodes(0).tolist()


def test_apertures_enter_only_as_a_cone_spec():
    # no public function takes alpha and beta apart, and the cap
    # min(alpha t, beta m) has one home, ConeSpec.caps
    src = Path(gausstent.__file__).parent
    for info in pkgutil.iter_modules([str(src)]):
        module = importlib.import_module(f"gausstent.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                params = inspect.signature(obj).parameters
                assert not {"alpha", "beta"} <= params.keys(), f"{info.name}.{name}"
    for path in src.glob("*.py"):
        assert "_pencil_caps" not in path.read_text(), path.name


def test_private_names_are_imported_only_from_the_kernels():
    # _kernels is the one module a private name crosses from; it imports
    # nothing from the package, and every name it defines is private
    src = Path(gausstent.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert node.module == "_kernels" or not private, (path.name, private)
    kernels = ast.parse((src / "_kernels.py").read_text())
    for node in ast.walk(kernels):
        if isinstance(node, ast.ImportFrom):
            assert not node.level and not node.module.startswith("gausstent"), node.module
        elif isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("gausstent")]
    defined = [t.id for node in kernels.body if isinstance(node, ast.Assign)
               for t in node.targets] + [node.name for node in kernels.body
                                         if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 30 and all(n.startswith("_") for n in defined), defined


def test_all_lists_only_names_its_module_defines():
    # one route to each public name: no module re-exports an imported name
    src = Path(gausstent.__file__).parent
    for path in sorted(src.glob("*.py")):
        body = ast.parse(path.read_text()).body
        imported = {a.asname or a.name.split(".")[0] for node in body
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        defined = {node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        listed = ()
        for node in body:
            if isinstance(node, ast.Assign):
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                defined |= targets
                if "__all__" in targets:
                    listed = ast.literal_eval(node.value)
        stray = [n for n in listed if n in imported or n not in defined]
        assert not stray, (path.name, stray)


def test_private_attributes_are_read_only_through_self_or_cls():
    # a private method or field is its own class's business: only self._x or cls._x
    src = Path(gausstent.__file__).parent
    reads = [(path.name, node.lineno, ast.unparse(node))
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr.startswith("_")
             and not node.attr.startswith("__")
             and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]
    assert not reads, reads


def _one_point_tents(B, spec, y, t):
    """(Gaussian, classical) membership of the one point (y, t) in the tents
    over B, the classical tent at aperture alpha with no cap."""
    ys = np.array([y], dtype=float)
    return tuple(bool(_ball_tent(ys, B.center_array, B.radius,
                                 s.caps(cutoff_m(ys), np.array([[t]])))[0, 0])
                 for s in (spec, ConeSpec(spec.alpha, np.inf)))


def test_tent_nonstrict_boundary():
    B = Ball((0.0,), 1.0)
    # depth 0.5 at y = 0.5; t = 0.5 sits exactly on the boundary: included
    assert _one_point_tents(B, ConeSpec(1.0, 1.0), (0.5,), 0.5) == (True, True)
    assert _one_point_tents(B, ConeSpec(1.0, 1.0), (0.5,), 0.5000001) == (False, False)


def test_tent_outside_ball_excluded():
    B = Ball((0.0,), 1.0)
    assert _one_point_tents(B, ConeSpec(1.0, 1.0), (1.5,), 1e-6) == (False, False)


def test_compare_tents_agreement_off_axis(rng):
    # admissible ball far from the origin: tents coincide off the axis
    B = Ball((3.0,), 0.25)
    ys = rng.uniform(2, 4, (3000, 1))
    ts = rng.uniform(1e-3, 4.0, 3000)
    rep = compare_tents(B, ConeSpec(1.0, 1.0), ys, ts)
    assert rep["preconditions_ok"]
    assert rep["n_off_axis"] == 0


def test_compare_tents_axis_disagreement_possible():
    # boundary-admissible ball: the axis column diverges between the tents
    c = 3.0
    B = Ball((c,), cutoff_m(c))
    y, t = (c,), 2.0  # classical needs t <= r; gaussian caps at m(c)
    gau, cla = _one_point_tents(B, ConeSpec(1.0, 1.0), y, t)
    assert gau != cla
    rep = compare_tents(B, ConeSpec(1.0, 1.0), [y], [t])
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
    rep = compare_tents(B, ConeSpec(1.0, 0.5), ys, ts)
    want = []
    for y, t in zip(ys.tolist(), ts.tolist()):
        g, c = _one_point_tents(B, ConeSpec(1.0, 0.5), y, t)
        if g != c:
            want.append({"y": tuple(y), "t": t, "gaussian": g, "classical": c,
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
            caps = ConeSpec(1.0, b).caps(cutoff_m(ys), ts)[:, None]
            assert np.array_equal(_ball_tent(ys, B.center_array, r, caps)[:, 0], want)
        gau, cla = (_written_out_tent(B, 1.0, b, ys, ts) for b in (beta, np.inf))
        rep = compare_tents(B, ConeSpec(1.0, beta), ys, ts)
        assert [(d["y"], d["t"]) for d in rep["disagreements"]] \
            == [(tuple(ys[i].tolist()), ts[i]) for i in np.flatnonzero(gau != cla)]


def test_compare_tents_warnings():
    rep = compare_tents(Ball((0.1,), 0.5), ConeSpec(1.0, 0.5), np.empty((0, 1)), [])
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
