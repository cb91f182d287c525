import numpy as np
import pytest

from gausstent.geometry import Ball, ConeSpec, cutoff_m, gamma_ball
from gausstent.grid import GridFunction, SpatialFunction
from gausstent.functionals import (
    BallDictionary, ExponentPair, default_dictionary, tent_norm,
)
from gausstent.duality import (
    DiscreteMeasure, carleson_norm, check_carleson_pairing, check_duality_1q,
    check_duality_pq, measure_pairing, measured_K_beta, pairing,
    read_measure_csv, stopping_density, write_measure_csv,
)


def _bump(grid, rng, y0=None):
    y = grid.points[:, 0]
    if y0 is None:
        y0 = rng.uniform(-2, 2)
    t0 = np.exp(rng.uniform(np.log(0.01), 0.0))
    vals = rng.uniform(0.5, 2.0) * np.exp(-((y[:, None] - y0) / 0.5) ** 2) \
        * np.exp(-np.log(grid.t[None, :] / t0) ** 2)
    vals[np.abs(y - y0) > 1.5, :] = 0.0
    return GridFunction(grid, vals)


# -- measures --------------------------------------------------------------

def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure((((0.0,), -0.5, 1.0),))


def test_measure_csv_roundtrip(tmp_path):
    mu = DiscreteMeasure((((0.25,), 0.5, 1.5), ((-1.0,), 0.125, -0.75)))
    path = tmp_path / "mu.csv"
    write_measure_csv(mu, path)
    back = read_measure_csv(path)
    assert back.points == mu.points


def test_measure_pairing_and_bounds(grid_small):
    f = GridFunction(grid_small,
                     np.ones((grid_small.n_spatial, grid_small.nt)))
    mu = DiscreteMeasure((((0.0,), 0.5, 2.0),))
    assert measure_pairing(mu, f) == 2.0
    with pytest.raises(ValueError):
        measure_pairing(DiscreteMeasure((((100.0,), 0.5, 1.0),)), f)
    with pytest.raises(ValueError):
        measure_pairing(DiscreteMeasure((((0.0,), 1e-9, 1.0),)), f)


def test_pairing_bilinear(grid_small, rng):
    f, g = _bump(grid_small, rng), _bump(grid_small, rng)
    assert pairing(f, g) == pytest.approx(pairing(g, f), rel=1e-14)
    assert pairing(f + f, g) == pytest.approx(2 * pairing(f, g), rel=1e-13)


# -- Carleson norms --------------------------------------------------------

def test_carleson_norm_zero_measure(grid_small):
    # the empty measure is a valid measure, and so is one of weight 0
    d = default_dictionary(grid_small, 1.0).admissible(1.0)
    for points in (), (((0.0,), 0.5, 0.0),):
        rep = carleson_norm(DiscreteMeasure(points), 1.0, 1.0, 1.0, d)
        assert rep["norm"] == 0.0 and rep["witness_ball"] is None


def test_carleson_norm_rejects_inadmissible_dict(grid_small):
    bad = BallDictionary([[4.0]], [2.0])  # m(4) = 0.25, not 0.5-admissible
    mu = DiscreteMeasure((((0.0,), 0.5, 1.0),))
    with pytest.raises(ValueError):
        carleson_norm(mu, 1.0, 1.0, 0.5, bad)


def test_carleson_norm_witness_bruteforce(grid_small, rng):
    d = default_dictionary(grid_small, 1.0).admissible(1.0)
    pts = tuple(((float(rng.uniform(-2, 2)),),
                 float(np.exp(rng.uniform(np.log(0.01), 0.0))),
                 float(rng.uniform(0.1, 1.0))) for _ in range(15))
    mu = DiscreteMeasure(pts)
    rep = carleson_norm(mu, 1.0, 1.0, 1.0, d)
    # brute-force recomputation over the dictionary
    best = 0.0
    for c, r in zip(d.centers, d.radii):
        mass = 0.0
        for y, t, w in mu.points:
            depth = max(r - abs(y[0] - c[0]), 0.0)
            if depth >= min(t, cutoff_m(y[0])):
                mass += abs(w)
        best = max(best, mass / gamma_ball(Ball(tuple(c), r)))
    assert rep["norm"] == pytest.approx(best, rel=1e-12)
    assert rep["witness_ball"] is not None


def test_carleson_norm_matches_pointwise_tents(grid_small, rng):
    # every ball's value against the tent written out, point by point:
    # dist(y, B^c) >= min(alpha t, beta m(y)) at alpha = beta = 1
    d = default_dictionary(grid_small, 1.0).admissible(2.0)
    pts = tuple(((float(rng.uniform(-3, 3)),),
                 float(np.exp(rng.uniform(np.log(0.01), np.log(2.0)))),
                 float(rng.uniform(-1.0, 1.0))) for _ in range(50))
    mu = DiscreteMeasure(pts)
    rep = carleson_norm(mu, 1.0, 1.0, 2.0, d)
    balls = [Ball(tuple(c), r) for c, r in zip(d.centers, d.radii)]
    want = np.array([sum(abs(w) for y, t, w in mu.points
                         if max(B.radius - abs(y[0] - B.center[0]), 0.0)
                         >= min(t, cutoff_m(y[0])))
                     / gamma_ball(B) for B in balls])
    got = rep["values"]
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    assert want.max() > 0
    assert rep["witness_ball"] == balls[int(np.argmax(want))]
    assert rep["norm"] == pytest.approx(want.max(), rel=1e-15)


def test_carleson_pairing_constant_finite(grid_small, rng):
    d = default_dictionary(grid_small, 1.0).admissible(1.0)
    pts = tuple(((float(rng.uniform(-1, 1)),),
                 float(np.exp(rng.uniform(np.log(0.01), 0.0))),
                 float(rng.uniform(0.1, 1.0))) for _ in range(10))
    mu = DiscreteMeasure(pts)
    f = _bump(grid_small, rng, y0=0.0)
    rep = check_carleson_pairing(mu, f, 1.0, 1.0, 1.0, d)
    assert np.isfinite(rep["C_emp"])
    assert rep["lhs"] >= 0


# -- duality chains --------------------------------------------------------

def test_duality_pq_layers(grid_default, rng):
    spec = ConeSpec(1.0, 1.0)
    for p, q in ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0)):
        f, g = _bump(grid_default, rng), _bump(grid_default, rng)
        rep = check_duality_pq(f, g, p, q, spec)
        assert rep["identity_ok"], (p, q, rep)
        assert rep["holder1_ok"], (p, q, rep)
        assert rep["holder2_ok"], (p, q, rep)


def test_duality_pq_right_is_the_product_of_the_tent_norms(grid_small, rng):
    # layer 2 reuses S f and S g; the floats are those of two tent_norm calls
    spec = ConeSpec(1.0, 1.0)
    for p, q in ((2.0, 2.0), (3.0, 1.5), (1.5, 4.0)):
        f, g = _bump(grid_small, rng), _bump(grid_small, rng)
        pp, qp = p / (p - 1.0), q / (q - 1.0)
        want = (tent_norm(f, ExponentPair(p, q), spec.alpha, spec.beta)
                * tent_norm(g, ExponentPair(pp, qp), spec.alpha, spec.beta))
        assert check_duality_pq(f, g, p, q, spec)["right"] == want


def test_duality_pq_rejects_endpoints(grid_small, rng):
    f = _bump(grid_small, rng)
    with pytest.raises(ValueError):
        check_duality_pq(f, f, 1.0, 2.0, ConeSpec(1.0, 1.0))


def test_K_beta_at_least_one(grid_small):
    d = default_dictionary(grid_small, 1.0)
    K = measured_K_beta(1.0, 1.0, d)
    assert K >= 1.0 and np.isfinite(K)


def test_duality_1q_report(grid_small, rng):
    spec = ConeSpec(1.0, 1.0)
    d = default_dictionary(grid_small, 1.0)
    f, g = _bump(grid_small, rng), _bump(grid_small, rng)
    rep = check_duality_1q(f, g, 2.0, spec, d)
    assert np.isfinite(rep["C_emp"]) or rep["vacuous"]
    assert rep["M_const"] == pytest.approx(2.0 * rep["K_beta"] ** 0.5)
    assert 0.0 < rep["lambda_M_guarantee"] < 1.0


def test_stopping_density_in_unit_interval(grid_small):
    d = default_dictionary(grid_small, 1.0)
    h = SpatialFunction(grid_small, np.full(grid_small.n_spatial, np.inf))
    rep = stopping_density(h, 1.0, 1.0, d)
    # h == inf: every ball sees full density
    assert rep["lambda_M_min"] == 1.0
    assert np.all((0.0 <= rep["lambda_M"]) & (rep["lambda_M"] <= 1.0))
