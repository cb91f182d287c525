"""Covering machinery: density points, tents of masks, Whitney cubes/balls.

Distances from grid nodes to node sets are exact Euclidean distance
transforms, computed in numpy by one separable pass per axis, within the
box: the box exterior is not part of any complement.  Density points of
any number of node sets share one centered ladder.  Whitney cubes are
found one dyadic level at a time.  All set operations are
resolution-limited; audits allow a one-grid-cell tolerance and say so in
their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Ball, ConeSpec, _distance_rows, _gamma_ratio_sup
from .grid import GridFunction, HalfSpaceGrid, RegionMask
from .functionals import BallDictionary, _centered_ladder, _cone_windows, _Windows, cone_caps

__all__ = [
    "DyadicCube",
    "WhitneyCover",
    "complement_distance",
    "cube_bounds",
    "cube_center",
    "density_inequality_check",
    "density_points",
    "doubling_constant",
    "etabar_from_doubling",
    "region_R_mask",
    "reverse_fubini_check",
    "set_distance",
    "tent_mask",
    "whitney_balls",
    "whitney_cubes",
]


# -- distances and tents of masks -----------------------------------------


def _edt(feature: np.ndarray, spacing) -> np.ndarray:
    """Distance from every node to the nearest True node of `feature`.

    `feature` has shape (m,) or (m0, m1); with no True node every distance
    is inf.  The transform is separable (Felzenszwalb and Huttenlocher,
    "Distance Transforms of Sampled Functions", 2012): along the last axis
    the nearest feature index on each side comes from running max / min
    accumulations; the distance is then the minimum over the leading axis
    of ((i - k) h0)^2 + (offset h1)^2, square-rooted.  That is the
    expression scipy's distance_transform_edt evaluates, so the values agree
    to the bit.  A 1-D array is a single row, where the leading term is 0.
    """
    rows = np.atleast_2d(feature)
    h0, h1 = spacing if feature.ndim == 2 else (1.0, *spacing)
    m0, m1 = rows.shape
    j = np.arange(m1)
    left = np.maximum.accumulate(np.where(rows, j, -np.inf), axis=1)
    right = np.minimum.accumulate(np.where(rows, j, np.inf)[:, ::-1], axis=1)[:, ::-1]
    sq = (np.minimum(j - left, right - j) * h1) ** 2
    k = np.arange(m0)
    out = np.empty_like(sq)
    step = max(1, (1 << 22) // sq.size)     # bounds the (step, m0, m1) block
    for i0 in range(0, m0, step):
        i = np.arange(i0, min(i0 + step, m0))
        lead = ((i[:, None] - k) * h0) ** 2
        out[i] = (lead[:, :, None] + sq).min(axis=1)
    return np.sqrt(out).reshape(feature.shape)


def complement_distance(O: RegionMask) -> np.ndarray:
    """dist(x, O^c) at every node, O^c taken inside the box.

    The box exterior is not part of O^c: a function on the grid lives in
    the box, so S f and its level sets run on past the edge, and a node of
    O on the edge is as deep as its distance to the complement nodes makes
    it.  When O is the whole box, O^c is empty and every distance is inf.
    """
    g = O.grid
    return _edt(~O.mask.reshape(g.shape), g.spacing).ravel()


def set_distance(A: RegionMask) -> np.ndarray:
    """dist(x, A) at every node (inf when A is empty)."""
    g = A.grid
    return _edt(A.mask.reshape(g.shape), g.spacing).ravel()


def tent_mask(O: RegionMask, alpha: float, beta: float,
              shrink: float = 1.0) -> np.ndarray:
    """(N, nt) bool array of the tent over O: dist(y, O^c) >= cap(y, t).

    shrink scales both apertures, i.e. shrink=1-eta gives the tent at
    ((1-eta) alpha, (1-eta) beta) used by the band structure.  Every cap is
    positive, so the tent of an empty O is empty.  O^c is taken inside the
    box (see complement_distance): a node of O on the box edge carries the
    cells its distance to the complement nodes allows, and the tent of the
    whole box is every cell.
    """
    g = O.grid
    caps = shrink * cone_caps(g, ConeSpec(alpha, beta))
    d = complement_distance(O)
    return d[:, None] >= caps


def region_R_mask(F: RegionMask, alpha: float, beta: float,
                  shrink: float = 1.0) -> np.ndarray:
    """(N, nt) bool array of the union of cones with vertices in F:
    nodes with dist(y, F) < cap."""
    g = F.grid
    caps = shrink * cone_caps(g, ConeSpec(alpha, beta))
    d = set_distance(F)
    return d[:, None] < caps


# -- density points --------------------------------------------------------


def _density_columns(grid: HalfSpaceGrid, F: np.ndarray, eta: float,
                     level: float) -> np.ndarray:
    """density_points of every column of the (N, L) bool array F at once."""
    ok = np.ones(F.shape, dtype=bool)
    for num, den in _centered_ladder(grid, level, F):
        ok &= num >= eta * den[:, None]
    return ok


def density_points(A: RegionMask, eta: float, level: float) -> RegionMask:
    """Nodes x where every centered admissible ball carries A-density >= eta.

    Balls are the centered ladder B(x, 2^-k level m(x)), k = 0..6,
    the graded stand-in for all radii up to the admissible scale; density
    ratios use the grid quadrature gamma in numerator and denominator.

    Where level m(x) is at most the grid spacing, every rung holds x alone,
    so x is a density point exactly when x is in A (at level 2 on a 64 x 16
    grid over [-8, 8], the edge nodes: 0.25 <= 0.254).
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    g = A.grid
    return RegionMask(g, _density_columns(g, A.mask[:, None], eta, level)[:, 0])


# -- Whitney cube covers ---------------------------------------------------


@dataclass(frozen=True)
class DyadicCube:
    """Dyadic cube of side 2^-level anchored at the spatial box corner."""

    level: int
    index: tuple


def cube_bounds(cube: DyadicCube, grid: HalfSpaceGrid):
    side = 2.0 ** (-cube.level)
    lo = np.array([a for a, _ in grid.spatial_box]) + side * np.asarray(cube.index)
    return lo, lo + side


def cube_center(cube: DyadicCube, grid: HalfSpaceGrid) -> np.ndarray:
    lo, hi = cube_bounds(cube, grid)
    return (lo + hi) / 2.0


@dataclass
class WhitneyCover:
    """Disjoint dyadic cubes (or bounded-overlap balls) filling a set."""

    cubes: tuple = ()
    balls: tuple = ()
    cube_nodes: tuple = ()      # node indices per cube
    cube_dist: tuple = ()       # min node distance to target complement
    audit: dict = field(default_factory=dict)


def _box_base_level(grid: HalfSpaceGrid) -> int:
    widths = [b - a for a, b in grid.spatial_box]
    w = widths[0]
    if any(abs(x - w) > 1e-12 for x in widths):
        raise ValueError("dyadic tiling needs equal box widths")
    lvl = round(np.log2(w))
    if abs(2.0 ** lvl - w) > 1e-9:
        raise ValueError("dyadic tiling needs a power-of-two box width")
    return -lvl


def whitney_cubes(O: RegionMask) -> WhitneyCover:
    """Maximal dyadic cubes inside O with diam(Q) <= dist(Q, O^c).

    Splitting stops once the side reaches one grid cell, where a cube holds
    at most one node; pure sub-cell cubes are emitted regardless of the
    distance test so that every node of O is covered.  The classical bracket
    diam <= dist <= 4 diam then holds up to a one-cell tolerance, which the
    audit records.

    The cubes are found one dyadic level at a time.  The nodes no emitted
    cube holds yet are grouped by cube, and every cube of the level is
    decided at once; a node's child bit is point >= the parent's midpoint.
    Cubes come out in depth-first order (Morton order of their corners,
    first axis most significant), each with its nodes in ascending order.
    """
    g = O.grid
    if O.mask.all():
        raise ValueError("O equals the whole box; no complement to measure from")
    level = _box_base_level(g)
    edt = complement_distance(O)
    sqrt_n = np.sqrt(g.n)
    cell = min(g.spacing)
    corner = np.array([a for a, _ in g.spatial_box])

    # active nodes, each with its cube's per-axis index and Morton code
    nodes = np.arange(g.n_spatial)
    index = np.zeros((g.n_spatial, g.n), dtype=np.int64)
    code = np.zeros(g.n_spatial, dtype=np.int64)
    cubes, nodes_per, dist_per, codes = [], [], [], []
    while nodes.size:
        order = np.argsort(code, kind="stable")
        nodes, index, code = nodes[order], index[order], code[order]
        start = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
        stop = np.r_[start[1:], nodes.size]
        inside = np.logical_and.reduceat(O.mask[nodes], start)
        dist = np.minimum.reduceat(edt[nodes], start)
        side = 2.0 ** (-level)
        at_cell = side <= cell
        emit = inside & ((side * sqrt_n <= dist) | at_cell)
        e = np.flatnonzero(emit)
        cubes += [DyadicCube(level, tuple(i)) for i in index[start[e]].tolist()]
        nodes_per += [nodes[a:b] for a, b in zip(start[e], stop[e])]
        dist_per += dist[e].tolist()
        codes.append((level, code[start[e]]))
        if at_cell:
            break  # impure cubes at the resolution cap are dropped
        keep = np.repeat(~emit, stop - start)
        nodes, index, code = nodes[keep], index[keep], code[keep]
        bit = g.points[nodes] >= corner + side * index + side / 2.0
        index = 2 * index + bit
        for a in range(g.n):
            code = (code << 1) | bit[:, a]
        level += 1

    # depth-first order: Morton codes of the cube corners at the last level
    rank = np.argsort(np.concatenate([c << (g.n * (level - lv)) for lv, c in codes]))
    cubes = [cubes[r] for r in rank]
    nodes_per = [nodes_per[r] for r in rank]
    dist_per = [dist_per[r] for r in rank]

    audit = _audit_cubes(O, cubes, nodes_per, dist_per, edt)
    return WhitneyCover(cubes=tuple(cubes), cube_nodes=tuple(nodes_per),
                        cube_dist=tuple(dist_per), audit=audit)


def _audit_cubes(O, cubes, nodes_per, dist_per, edt) -> dict:
    g = O.grid
    cell = g.cell
    sqrt_n = np.sqrt(g.n)
    bracket_low = bracket_high = True
    for c, d in zip(cubes, dist_per):
        diam = 2.0 ** (-c.level) * sqrt_n
        if diam > d + cell:
            bracket_low = False
        if d > 4.0 * diam + cell:
            bracket_high = False
    covered = np.zeros(g.n_spatial, dtype=bool)
    count = np.zeros(g.n_spatial, dtype=int)
    for idx in nodes_per:
        covered[idx] = True
        count[idx] += 1
    uncovered = O.mask & ~covered
    # every uncovered O node must sit in the one-cell boundary layer
    boundary_ok = bool(np.all(edt[uncovered] <= cell * sqrt_n + 1e-12)) \
        if uncovered.any() else True
    return {
        "n_cubes": len(cubes),
        "bracket_lower_ok": bracket_low,
        "bracket_upper_ok": bracket_high,
        "disjoint": bool(np.all(count <= 1)),
        "covered_fraction": float(covered[O.mask].mean()) if O.mask.any() else 1.0,
        "uncovered_within_boundary_layer": boundary_ok,
        "tolerance_cells": 1,
    }


# -- Whitney ball covers (Vitali-type, q = infinity path) ------------------

_C_OVERLAP = 2.0    # ball radius dist(x, O^c) / C; C >= 2 keeps the cover exact


def whitney_balls(O: RegionMask) -> WhitneyCover:
    """Greedy depth-first ball cover of O with radii dist(x, O^c)/C, C = 2.

    Picks the deepest uncovered node (ties broken lexicographically), emits
    B(x, d(x)/C), and repeats.  With C >= 2 this yields: O = union of the
    balls (exact on nodes), C*B_j touches O^c (radius d(x) exactly reaches
    the nearest complement node), and the shrunken family {C^-1 B_j} is
    pairwise disjoint.  Bounded overlap is measured and reported.
    """
    g = O.grid
    if O.mask.all():
        raise ValueError("O equals the whole box")
    C = _C_OVERLAP
    edt = complement_distance(O)
    order = np.argsort(-edt, kind="stable")  # stable: lexicographic ties
    covered = np.zeros(g.n_spatial, dtype=bool)
    balls, centers_idx = [], []
    for i in order:
        if covered[i] or not O.mask[i]:
            continue
        r = edt[i] / C
        balls.append(Ball(tuple(g.points[i]), r))
        centers_idx.append(i)
        covered |= _distance_rows(g.points, g.points[i]) < r

    audit = _audit_balls(O, balls, centers_idx, edt)
    return WhitneyCover(balls=tuple(balls), audit=audit)


def _audit_balls(O, balls, centers_idx, edt) -> dict:
    g = O.grid
    C = _C_OVERLAP
    cell = g.cell
    n_balls = len(balls)
    covered = np.zeros(g.n_spatial, dtype=bool)
    overlap = np.zeros(g.n_spatial, dtype=int)
    meets = True
    for b, i in zip(balls, centers_idx):
        inside = _distance_rows(g.points, g.points[i]) <= b.radius
        covered |= inside
        overlap += inside
        # C*B must reach the complement: nearest complement node at edt[i]
        if edt[i] > C * b.radius + cell:
            meets = False
    radii = np.array([b.radius for b in balls])
    gap = _distance_rows(g.points[centers_idx], g.points[centers_idx])
    too_close = gap < (radii[:, None] + radii[None, :]) / C - 1e-12
    disjoint = not np.triu(too_close, 1).any()
    return {
        "n_balls": n_balls,
        "covers_target": bool(covered[O.mask].all()),
        "inflated_meet_complement": meets,
        "shrunken_disjoint": disjoint,
        "max_overlap": int(overlap.max()) if n_balls else 0,
        "tolerance_cells": 1,
    }


# -- doubling constants and the two integral-inequality checks -------------


def doubling_constant(level: float, dict_: BallDictionary) -> float:
    """Measured sup of gamma(2B)/gamma(B) over admissible dictionary balls."""
    keep = dict_._admits(level)
    return _gamma_ratio_sup(dict_.centers[keep], dict_.radii[keep], 2.0)


def etabar_from_doubling(C: float) -> float:
    """Midpoint of the admissible interval (1 - 1/C, 1)."""
    if C <= 1.0:
        raise ValueError("doubling constant must exceed 1")
    return 1.0 - 1.0 / (2.0 * C)


def _ratio(lhs: float, rhs: float, key: str = "ratio") -> dict:
    """{key: lhs / rhs, "vacuous": both zero}; x / 0 reads inf, 0 / 0 reads 0."""
    return {key: lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else np.inf),
            "vacuous": rhs == 0 and lhs == 0}


def _cone_average_over(A_mask: np.ndarray, H: GridFunction,
                       spec: ConeSpec) -> float:
    """int_A ( iint_{cone(x)} H / gamma(B(y, cap)) dgamma dt/t ) dgamma(x),
    evaluated by the exact grid rearrangement."""
    g = H.grid
    ys, js, win = _cone_windows(H.values, g, spec)
    den, mass_in_A = win.gather(np.stack([g.gamma_y, g.gamma_y * A_mask], axis=1)).T
    return float(np.sum(H.values[ys, js] * g.gamma_y[ys] * g.wt[js] * mass_in_A / den))


def density_inequality_check(A: RegionMask, H: GridFunction, eta: float,
                             etabar: float, spec: ConeSpec,
                             dict_: BallDictionary | None = None) -> dict:
    """Ratio report for the density-point integral inequality.

    LHS integrates H over the cone-union region with vertices in the
    etabar-density points of A (admissibility level beta(1+beta), shrunken
    apertures (1-eta)); RHS is the A-restricted cone average of H.  The
    guaranteed lower bound (etabar - 1 + 1/C) * exp(-3 beta (2+beta)) is
    reported alongside the measured doubling constant C when a dictionary is
    supplied.
    """
    if np.any(H.values < 0):
        raise ValueError("H must be nonnegative")
    g = H.grid
    lam = spec.beta * (1.0 + spec.beta)
    A_eta = density_points(A, etabar, lam)
    R = region_R_mask(A_eta, spec.alpha, spec.beta, shrink=1.0 - eta)
    lhs = float(np.sum(H.values * R * g.gamma_y[:, None] * g.wt[None, :]))
    rhs = _cone_average_over(A.mask.astype(float), H, spec)
    report = {
        "lhs": lhs,
        "rhs": rhs,
        **_ratio(lhs, rhs),
        "density_set_size": int(A_eta.mask.sum()),
    }
    if dict_ is not None:
        C = doubling_constant(lam, dict_)
        K = np.exp(-3.0 * spec.beta * (2.0 + spec.beta))
        report["doubling_constant"] = C
        report["lambda_lower_bound"] = (etabar - 1.0 + 1.0 / C) * K
    return report


def containing_density_points(F: RegionMask, eta: float, beta: float,
                              dict_: BallDictionary) -> RegionMask:
    """Nodes x such that every admissible dictionary ball containing x has
    gamma(B & F) >= eta gamma(B) — the containing-ball variant."""
    g = F.grid
    gw = g.gamma_y
    keep = dict_._admits(beta)
    win = _Windows(g, dict_.centers[keep], dict_.radii[keep])
    in_F, full = win.gather(np.stack([gw * F.mask, gw], axis=1)).T
    bad = win.scatter((in_F < eta * full).astype(float), np.maximum)
    return RegionMask(g, bad == 0.0)


def reverse_fubini_check(F: RegionMask, H: GridFunction, eta: float,
                         alpha: float, beta: float, delta: float,
                         dict_: BallDictionary) -> dict:
    """Ratio report for the reverse Fubini inequality with containing balls.

    LHS integrates H over the alpha-aperture cone union with vertices in the
    containing-ball density set of F; RHS is the F-restricted cone average
    at the wider aperture delta >= alpha.  The analytic constant is
    (delta/alpha)^n exp(-(2+beta) beta).
    """
    if np.any(H.values < 0):
        raise ValueError("H must be nonnegative")
    if delta < alpha:
        raise ValueError("delta >= alpha required")
    g = H.grid
    F_tilde = containing_density_points(F, eta, beta, dict_)
    R = region_R_mask(F_tilde, alpha, beta)
    lhs = float(np.sum(H.values * R * g.gamma_y[:, None] * g.wt[None, :]))
    rhs = _cone_average_over(F.mask.astype(float), H, ConeSpec(delta, beta))
    return {
        "lhs": lhs,
        "rhs": rhs,
        **_ratio(lhs, rhs),
        "analytic_constant": (delta / alpha) ** g.n * np.exp(-(2.0 + beta) * beta),
        "density_set_size": int(F_tilde.mask.sum()),
    }
