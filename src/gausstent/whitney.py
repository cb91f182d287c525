"""Covering machinery: density points, tents of masks, Whitney cubes/balls.

Distances from grid nodes to node sets are exact Euclidean distance
transforms, computed in numpy by one separable pass per axis, within the
box: the box exterior is not part of any complement.  The union of cones
R(F) with vertices in F is the complement of the tent over F^c (Coifman,
Meyer and Stein 1985), so the two integral-inequality checks take it from
tent_mask, which takes the cone caps its caller built once.  Density points
of any number of node sets share one centered ladder.  Whitney cubes are
found one dyadic level at a time, and a cover holds them as arrays with one
row per cube: dyadic indices, levels, centers and distances to the
complement; a ball cover as center nodes, centers and radii, each ball's
nodes taken from the window layer.  A cover keeps its node sets and the
complement distance it measured, from which a caller takes the set's tent.
All set operations are resolution-limited; audits allow a one-grid-cell
tolerance and say so in their reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import (
    _C_OVERLAP, _ball_windows, _cone_average_over, _density_columns, _distance, _expand,
    _gamma_ratio_sup, _ratio,
)
from .geometry import ConeSpec, is_admissible
from .grid import GridFunction, HalfSpaceGrid, RegionMask, halfspace_integral
from .functionals import BallDictionary, cone_caps

__all__ = [
    "WhitneyCover",
    "complement_distance",
    "containing_density_points",
    "density_inequality_check",
    "density_points",
    "doubling_constant",
    "etabar_from_doubling",
    "reverse_fubini_check",
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
    return _edt(~O.mask.reshape(g.nx), g.spacing).ravel()


def tent_mask(O: RegionMask, caps: np.ndarray) -> np.ndarray:
    """(N, nt) bool array of the tent over O: dist(y, O^c) >= cap(y, t).

    `caps` is the (N, nt) array of cone caps, scaled by 1 - eta for the
    band structure; callers build it once.  Every cap is positive, so the
    tent of an empty O is empty.  O^c is taken inside the box (see
    complement_distance): a node of O on the box edge carries the cells its
    distance to the complement nodes allows, and the tent of the whole box
    is every cell.
    """
    return complement_distance(O)[:, None] >= caps


# -- density points --------------------------------------------------------


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


@dataclass
class WhitneyCover:
    """Disjoint dyadic cubes (or bounded-overlap balls) filling a set.

    Cube C_j has side 2^-levels[j] and corner box_lo + side * cubes[j], the
    per-axis dyadic indices; ball B_j is B(centers[j], radii[j]) about the
    node balls[j].  The fields are arrays with one row per cube or ball, and
    nodes[j] lists the nodes of C_j or B_j in ascending order.
    """

    cubes: np.ndarray = ()      # (C, n) per-axis dyadic indices
    levels: np.ndarray = ()     # (C,) dyadic levels
    centers: np.ndarray = ()    # (C, n) cube or (B, n) ball centers
    cube_dist: np.ndarray = ()  # (C,) min node distance to target complement
    balls: np.ndarray = ()      # (B,) center node indices
    radii: np.ndarray = ()      # (B,) ball radii
    nodes: tuple = ()           # node indices per cube or ball
    node_dist: np.ndarray = ()  # (N,) dist(x, O^c) at every node
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
    first axis most significant), each with its nodes in ascending order,
    as the rows of the cover's arrays.
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
    cubes, levels, centers, nodes_per, dist_per, codes = [], [], [], [], [], []
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
        cubes.append(index[start[e]])
        lo = corner + side * cubes[-1]
        levels.append(np.full(e.size, level))
        centers.append((lo + (lo + side)) / 2.0)
        nodes_per += [nodes[a:b] for a, b in zip(start[e], stop[e])]
        dist_per.append(dist[e])
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
    levels, dist_per = np.concatenate(levels)[rank], np.concatenate(dist_per)[rank]
    nodes_per = tuple(nodes_per[r] for r in rank)
    audit = _audit_cubes(O, levels, nodes_per, dist_per, edt)
    return WhitneyCover(cubes=np.concatenate(cubes)[rank], levels=levels,
                        centers=np.concatenate(centers)[rank], cube_dist=dist_per,
                        nodes=nodes_per, node_dist=edt, audit=audit)


def _node_count(grid: HalfSpaceGrid, nodes_per) -> np.ndarray:
    """How many of the node index arrays nodes_per hold each node."""
    return np.bincount(np.concatenate([np.empty(0, np.intp), *nodes_per]),
                       minlength=grid.n_spatial)


def _audit_cubes(O, levels, nodes_per, dist, edt) -> dict:
    g = O.grid
    cell = g.cell
    sqrt_n = np.sqrt(g.n)
    diam = 2.0 ** -levels * sqrt_n
    count = _node_count(g, nodes_per)
    uncovered = O.mask & (count == 0)
    # every uncovered O node must sit in the one-cell boundary layer
    boundary_ok = bool(np.all(edt[uncovered] <= cell * sqrt_n + 1e-12)) \
        if uncovered.any() else True
    return {
        "n_cubes": len(levels),
        "bracket_lower_ok": bool(np.all(diam <= dist + cell)),
        "bracket_upper_ok": bool(np.all(dist <= 4.0 * diam + cell)),
        "disjoint": bool(np.all(count <= 1)),
        "covered_fraction": float((count[O.mask] > 0).mean()) if O.mask.any() else 1.0,
        "uncovered_within_boundary_layer": boundary_ok,
        "tolerance_cells": 1,
    }


# -- Whitney ball covers (Vitali-type, q = infinity path) ------------------


def whitney_balls(O: RegionMask) -> WhitneyCover:
    """Greedy depth-first ball cover of O with radii dist(x, O^c)/C, C = 2.

    Picks the deepest uncovered node (ties broken lexicographically), emits
    B(x, d(x)/C), and repeats.  With C >= 2 this yields: O = union of the
    balls (exact on nodes), C*B_j touches O^c (radius d(x) exactly reaches
    the nearest complement node), and the shrunken family {C^-1 B_j} is
    pairwise disjoint.  Bounded overlap is measured and reported.  The ball
    of every node of O is one window of the window layer, in greedy order.
    """
    g = O.grid
    if O.mask.all():
        raise ValueError("O equals the whole box")
    edt = complement_distance(O)
    order = np.flatnonzero(O.mask)[np.argsort(-edt[O.mask], kind="stable")]
    radii = edt[order] / _C_OVERLAP
    win = _ball_windows(g, g.points[order], radii)
    covered = np.zeros(g.n_spatial, dtype=bool)
    picked, nodes = [], []
    for w, i in enumerate(order):
        if not covered[i]:
            picked.append(w)
            nodes.append(win.nodes(w))
            covered[nodes[-1]] = True
    balls, radii = order[picked], radii[picked]
    audit = _audit_balls(O, balls, radii, nodes, edt)
    return WhitneyCover(centers=g.points[balls], balls=balls, radii=radii,
                        nodes=tuple(nodes), node_dist=edt, audit=audit)


def _audit_balls(O, balls, radii, nodes_per, edt) -> dict:
    g = O.grid
    C = _C_OVERLAP
    count = _node_count(g, nodes_per)
    # C*B must reach the complement: nearest complement node at edt[center]
    meets = not np.any(edt[balls] > C * radii + g.cell)
    return {
        "n_balls": len(balls),
        "covers_target": bool(np.all(count[O.mask] > 0)),
        "inflated_meet_complement": meets,
        "shrunken_disjoint": _shrunken_disjoint(g, balls, radii),
        "max_overlap": int(count.max()),
        "tolerance_cells": 1,
    }


def _shrunken_disjoint(g: HalfSpaceGrid, balls, radii) -> bool:
    """No balls a < b with |c_b - c_a| < (r_a + r_b)/C - 1e-12.  The
    candidates b of a are the centers in a's window of radius
    (r_a + max r)/C, found by binary search of its ranges in the sorted
    center nodes; the predicate is then taken on those pairs alone."""
    if not len(balls):
        return True
    lo, hi, owner = _ball_windows(g, g.points[balls],
                                  (radii + radii.max()) / _C_OVERLAP).ranges()
    order = np.argsort(balls)
    nodes = balls[order]
    pos, at = _expand(np.searchsorted(nodes, lo), np.searchsorted(nodes, hi))
    a, b = owner[at], order[pos]
    keep = a < b
    a, b = a[keep], b[keep]
    d = g.points[balls[b]] - g.points[balls[a]]
    gap = _distance(d[:, -1], None if g.n == 1 else d[:, 0] * d[:, 0])
    return not np.any(gap < (radii[a] + radii[b]) / _C_OVERLAP - 1e-12)


# -- doubling constants and the two integral-inequality checks -------------


def doubling_constant(level: float, dict_: BallDictionary) -> float:
    """Measured sup of gamma(2B)/gamma(B) over admissible dictionary balls;
    balls whose gamma(B) is 0 in floats (past |c| of about 27) are left
    out."""
    keep = is_admissible(dict_.centers, dict_.radii, level)
    return _gamma_ratio_sup(dict_.centers[keep], dict_.radii[keep], 2.0)


def etabar_from_doubling(C: float) -> float:
    """Midpoint of the admissible interval (1 - 1/C, 1)."""
    if C <= 1.0:
        raise ValueError("doubling constant must exceed 1")
    return 1.0 - 1.0 / (2.0 * C)


def _cone_union_report(H: GridFunction, D: RegionMask, caps: np.ndarray,
                       source: RegionMask, spec: ConeSpec) -> dict:
    """LHS integrates H over the cone union R(D) = complement of T(D^c),
    the tent taken under `caps`; RHS is the source-restricted cone average
    of H at `spec`.  Their ratio, and the size of D."""
    g = H.grid
    R = ~tent_mask(RegionMask(g, ~D.mask), caps)
    lhs = halfspace_integral(GridFunction(g, H.values * R))
    rhs = _cone_average_over(source.mask.astype(float), H, spec)
    return {"lhs": lhs, "rhs": rhs, **_ratio(lhs, rhs),
            "density_set_size": int(D.mask.sum())}


def density_inequality_check(A: RegionMask, H: GridFunction, eta: float,
                             etabar: float, spec: ConeSpec,
                             dict_: BallDictionary | None = None) -> dict:
    """Ratio report for the density-point integral inequality.

    LHS integrates H over the cone-union region R(A_eta) = complement of
    T(A_eta^c), A_eta the etabar-density points of A (admissibility level
    beta(1+beta), shrunken apertures (1-eta)); RHS is the A-restricted cone
    average of H.  The guaranteed lower bound (etabar - 1 + 1/C) *
    exp(-3 beta (2+beta)) is reported alongside the measured doubling
    constant C when a dictionary is supplied.
    """
    if np.any(H.values < 0):
        raise ValueError("H must be nonnegative")
    lam = spec.beta * (1.0 + spec.beta)
    A_eta = density_points(A, etabar, lam)
    report = _cone_union_report(H, A_eta, (1.0 - eta) * cone_caps(H.grid, spec), A, spec)
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
    keep = is_admissible(dict_.centers, dict_.radii, beta)
    win = _ball_windows(g, dict_.centers[keep], dict_.radii[keep])
    in_F, full = win.gather(np.stack([gw * F.mask, gw], axis=1)).T
    bad = win.scatter((in_F < eta * full).astype(float), np.maximum)
    return RegionMask(g, bad == 0.0)


def reverse_fubini_check(F: RegionMask, H: GridFunction, eta: float,
                         spec: ConeSpec, delta: float, dict_: BallDictionary) -> dict:
    """Ratio report for the reverse Fubini inequality with containing balls.

    LHS integrates H over the alpha-aperture cone union R(F~) = complement
    of T(F~^c), F~ the containing-ball density set of F; RHS is the
    F-restricted cone average at the wider aperture delta >= alpha.  The
    analytic constant is (delta/alpha)^n exp(-(2+beta) beta).
    """
    if np.any(H.values < 0):
        raise ValueError("H must be nonnegative")
    if delta < spec.alpha:
        raise ValueError("delta >= alpha required")
    F_tilde = containing_density_points(F, eta, spec.beta, dict_)
    report = _cone_union_report(H, F_tilde, cone_caps(H.grid, spec), F,
                                ConeSpec(delta, spec.beta))
    report["analytic_constant"] = (delta / spec.alpha) ** H.grid.n \
        * np.exp(-(2.0 + spec.beta) * spec.beta)
    return report
