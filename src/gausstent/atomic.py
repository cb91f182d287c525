"""Atoms and the constructive atomic decomposition.

An atom at exponent q is supported in the tent over an admissible ball B
and normalized by ||a||_{L^q(dgamma dt/t)} <= gamma(B)^{-(1-1/q)} (sup-norm
bound gamma(B)^{-1} at q = inf); its area function then has L^1(gamma) norm
at most 1.

The decomposition follows the level-set pipeline: level sets O_k of the
area function, density-point inflation O_k -> O_k^{[etabar]}, Whitney cubes
of the inflated sets, cube-centered balls large enough that the shrunken
tent of O_k^{[etabar]} restricted to a cube column lies inside the tent of
the ball, and one atom per (level, cube) piece.  On the grid the ball radius
is the prescribed multiple of the cube diameter, enlarged when necessary by
the measured cube-to-complement distance (plus one cell) so that the tent
inclusion holds node-exactly and the reconstruction is exact with zero
residual.  The q = inf path uses Vitali-type ball covers of the level sets
and a piecewise-linear partition of unity instead.

An atom is stored on its support box, a range of flat spatial indices times
a range of t indices, as the block of values inside it.  Both decompositions
build the blocks on the rows of their cube or ball, and an atom is expanded
to the whole grid only one at a time, to be checked or written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Ball, ConeSpec, _ball_tent, _distance_rows, cutoff_m, gamma_ball
from .grid import (
    GridFunction, HalfSpaceGrid, RegionMask, halfspace_integral, lp_gamma_norm,
)
from .functionals import area_S, area_S_sup, cone_caps, default_dictionary
from .whitney import (
    _C_OVERLAP,
    _density_columns,
    cube_center,
    doubling_constant,
    etabar_from_doubling,
    tent_mask,
    whitney_balls,
    whitney_cubes,
)
from . import grid as gridio

__all__ = [
    "Atom",
    "Decomposition",
    "coefficient_report",
    "decompose",
    "decompose_sup",
    "export_decomposition",
    "import_decomposition",
    "reconstruct",
    "validate_atom",
]


@dataclass
class Atom:
    """A grid function on its support box, with its certifying ball and
    exponent.  `box` is two slices, flat spatial rows and t columns; the
    values are `block` inside the box and +0.0 everywhere else."""

    grid: HalfSpaceGrid
    box: tuple
    block: np.ndarray = field(repr=False)
    ball: Ball
    q: float
    delta: float                      # realized admissibility level r_B/m(c_B)

    @classmethod
    def crop(cls, f: GridFunction, ball: Ball, q: float, delta: float) -> "Atom":
        """The atom with values f, kept on the bounding box of the values
        that are not +0.0.  A -0.0 counts, so expand() gives f back to the
        byte."""
        return _atom_on_rows(f.grid, 0, f.values, ball, q, delta)

    def expand(self) -> GridFunction:
        """The atom on the whole grid."""
        values = np.zeros((self.grid.n_spatial, self.grid.nt))
        values[self.box] = self.block
        return GridFunction(self.grid, values)


def _atom_on_rows(grid: HalfSpaceGrid, row0: int, values: np.ndarray,
                  ball: Ball, q: float, delta: float) -> Atom:
    """The atom whose values are `values` on the rows row0, row0 + 1, ...
    (every t column), cropped as in Atom.crop."""
    kept = np.signbit(values) | (values != 0.0)
    r = np.flatnonzero(kept.any(axis=1))
    c = np.flatnonzero(kept.any(axis=0))
    r0, r1 = (int(r[0]), int(r[-1]) + 1) if r.size else (0, 0)
    c0, c1 = (int(c[0]), int(c[-1]) + 1) if c.size else (0, 0)
    block = values[r0:r1, c0:c1].copy()
    block.setflags(write=False)
    return Atom(grid, (slice(row0 + r0, row0 + r1), slice(c0, c1)), block,
                ball, q, delta)


@dataclass
class Decomposition:
    terms: list                        # [(lambda, Atom), ...]
    source_norm: float
    q: float
    spec: ConeSpec
    diagnostics: list = field(default_factory=list)
    residual_mass: float = 0.0
    audit: dict = field(default_factory=dict)
    unassigned: int = 0                # nonzero cells of f that no atom holds


def _lq_halfspace_norm(f: GridFunction, q: float) -> float:
    if q == np.inf:
        return float(np.max(np.abs(f.values)))
    return halfspace_integral(GridFunction(f.grid, np.abs(f.values) ** q)) ** (1.0 / q)


def validate_atom(a: Atom, spec: ConeSpec) -> dict:
    """Three checks: tent support, the normalization bound, and the
    L^1(gamma) bound on the area function of the atom (5% slack)."""
    f = a.expand()
    g = a.grid
    in_tent = _ball_tent(g.points, a.ball.center_array, a.ball.radius, cone_caps(g, spec))
    nz = f.values != 0.0
    support_ok = bool(not np.any(nz & ~in_tent))

    gB = gamma_ball(a.ball)
    if a.q == np.inf:
        norm_value = float(np.max(np.abs(f.values)))
        norm_bound = 1.0 / gB
        S = area_S_sup(f, spec)
    else:
        norm_value = _lq_halfspace_norm(f, a.q)
        norm_bound = gB ** (-(1.0 - 1.0 / a.q))
        S = area_S(f, a.q, spec)
    norm_ok = bool(norm_value <= norm_bound * (1.0 + 1e-9))
    s_l1 = lp_gamma_norm(S, 1)
    area_ok = bool(s_l1 <= 1.05)
    return {
        "support_ok": support_ok,
        "norm_ok": norm_ok,
        "area_l1_ok": area_ok,
        "norm_value": norm_value,
        "norm_bound": norm_bound,
        "area_l1": s_l1,
        "all_ok": support_ok and norm_ok and area_ok,
    }


def _require_a_zero(S) -> None:
    """The lowest level set must leave part of the box to the complement."""
    if np.all(S.values > 0.0):
        raise ValueError("the area function is positive at every grid node; the "
                         "level-set decomposition needs S f = 0 somewhere on the box")


def _level_range(positive_values: np.ndarray):
    kmin = int(np.floor(np.log2(positive_values.min()))) - 1
    kmax = int(np.ceil(np.log2(positive_values.max())))
    return kmin, kmax


def decompose(f: GridFunction, q: float, spec: ConeSpec,
              eta: float = 0.5) -> Decomposition:
    """Atomic decomposition of f in the T^{1,q} scale, q < inf."""
    if not (1.0 <= q < np.inf):
        raise ValueError("q must lie in [1, inf)")
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    g = f.grid
    qprime_exp = 1.0 - 1.0 / q          # gamma(B)^{1/q'} exponent
    S = area_S(f, q, spec)
    _require_a_zero(S)
    source_norm = lp_gamma_norm(S, 1)
    pos = S.values[S.values > 0]
    if pos.size == 0:
        return Decomposition([], 0.0, q, spec)
    kmin, kmax = _level_range(pos)

    lam = spec.beta * (1.0 + spec.beta)
    C_doub = doubling_constant(lam, default_dictionary(g, lam))
    etabar = etabar_from_doubling(C_doub)
    C_inflate = 1.0 + 5.0 / (1.0 - eta)

    # inflated level sets O_k^[etabar] in column k - kmin: the complement of
    # the density points of F_k = ~O_k (all of them where O_k is empty)
    levels = range(kmin, kmax + 2)
    O = S.values[:, None] > np.ldexp(1.0, levels)
    inflated = ~_density_columns(g, ~O, etabar, lam)

    nesting_ok = not np.any(inflated[:, 1:] & ~inflated[:, :-1])
    whole = np.flatnonzero(inflated.all(axis=0))
    if whole.size:
        raise ValueError(f"the inflated level set at k = {kmin + whole[0]} covers the "
                         "whole box, so it has no complement to measure Whitney cubes from; "
                         "the zeros of S f are too sparse for the level-set decomposition")

    shrink = 1.0 - eta
    tents = [tent_mask(RegionMask(g, Oke), spec.alpha, spec.beta, shrink)
             for Oke in inflated.T]

    caps = cone_caps(g, spec)
    weights = g.gamma_y[:, None] * g.wt[None, :]
    cell = g.cell
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)
    terms = []
    diagnostics = []
    mu_bound_worst = 0.0

    for i, k in enumerate(levels[:-1]):
        if not inflated[:, i].any():
            continue
        band = tents[i] & ~tents[i + 1]
        cover = whitney_cubes(RegionMask(g, inflated[:, i]))
        diagnostics.append({
            "k": k,
            "level_set_gamma": float(g.gamma_y[O[:, i]].sum()),
            "inflated_gamma": float(g.gamma_y[inflated[:, i]].sum()),
            "n_cubes": len(cover.cubes),
        })
        for cube, nodes, dist_q in zip(cover.cubes, cover.cube_nodes, cover.cube_dist):
            d_j = 2.0 ** (-cube.level) * np.sqrt(g.n)
            c_j = cube_center(cube, g)
            # prescribed inflation, enlarged so the measured column distances
            # fit inside the ball tent node-exactly
            r_j = max(C_inflate * d_j, d_j + (dist_q + d_j) / shrink) + cell * 1e-9
            B_j = Ball(tuple(c_j), r_j)
            piece = band[nodes] & _ball_tent(g.points[nodes], c_j, r_j, caps[nodes])
            vals = f.values[nodes] * piece
            mu = float(np.sum(np.abs(vals) ** q * weights[nodes]))
            assigned[nodes] |= piece
            if mu == 0.0:
                continue
            gB = gamma_ball(B_j)
            lam_jk = gB ** qprime_exp * mu ** (1.0 / q)
            # the cube's nodes ascend; in 2-D they leave gaps between rows
            row0 = int(nodes[0])
            block = np.zeros((int(nodes[-1]) + 1 - row0, g.nt))
            block[nodes - row0] = vals / lam_jk
            atom = _atom_on_rows(g, row0, block, B_j, q, delta=r_j / cutoff_m(c_j))
            terms.append((lam_jk, atom))
            mu_bound_worst = max(mu_bound_worst, mu / (gB * 2.0 ** (q * k)))

    left = (f.values != 0.0) & ~assigned
    total_q = float(np.sum(np.abs(f.values) ** q * weights))
    resid_q = float(np.sum(np.abs(f.values[left]) ** q * weights[left]))
    residual = resid_q / total_q if total_q > 0 else 0.0
    return Decomposition(
        terms, source_norm, q, spec, diagnostics, residual,
        audit={"nesting_ok": nesting_ok, "etabar": etabar,
               "doubling_constant": C_doub, "C_inflate": C_inflate,
               "mu_over_gamma_2qk_max": mu_bound_worst,
               "k_range": (kmin, kmax)},
        unassigned=int(np.count_nonzero(left)),
    )


def decompose_sup(f: GridFunction, spec: ConeSpec) -> Decomposition:
    """Atomic decomposition at q = inf (continuous-intent values).

    Level sets come from the sup area function, covers are Vitali-type
    Whitney balls, and overlapping pieces are split by a piecewise-linear
    partition of unity (hat weight r_j - |y - c_j| on each ball, normalized
    to sum to one wherever f is nonzero in the band).
    """
    g = f.grid
    S = area_S_sup(f, spec)
    _require_a_zero(S)
    absf = np.abs(f.values)
    source_norm = lp_gamma_norm(S, 1)
    pos = absf[absf > 0]
    if pos.size == 0:
        return Decomposition([], 0.0, np.inf, spec)
    kmin, kmax = _level_range(pos)
    C = _C_OVERLAP
    star = 2.0 * C + 3.0

    level_masks = {k: RegionMask(g, S.values > 2.0 ** k)
                   for k in range(kmin, kmax + 2)}
    tents = {k: tent_mask(level_masks[k], spec.alpha, spec.beta)
             for k in range(kmin, kmax + 2)}

    terms = []
    diagnostics = []
    partition_defect = 0.0
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)

    for k in range(kmin, kmax + 1):
        Ok = level_masks[k]
        if not Ok.mask.any():
            continue
        band = tents[k] & ~tents[k + 1]
        cover = whitney_balls(Ok)
        diagnostics.append({
            "k": k,
            "level_set_gamma": float(g.gamma_y[Ok.mask].sum()),
            "n_balls": len(cover.balls),
        })
        hats = [np.maximum(B_j.radius - _distance_rows(g.points, B_j.center_array), 0.0)
                for B_j in cover.balls]
        hat_total = np.sum(hats, axis=0)
        relevant = band & (absf > 0)
        phi_sum = np.zeros(g.n_spatial)
        for B_j, w in zip(cover.balls, hats):
            # phi vanishes off the rows under the hat, which hold the center
            on = np.flatnonzero(w > 0.0)
            rows = slice(int(on[0]), int(on[-1]) + 1)
            under = hat_total[rows]
            phi = w[rows] / np.where(under > 0, under, 1.0)
            phi_sum[rows] += phi
            piece = relevant[rows] & (phi[:, None] > 0)
            if not piece.any():
                continue
            mu = 2.0 ** (k + 1) * gamma_ball(B_j.scaled(star))
            block = np.where(piece, f.values[rows] * phi[:, None] / mu, 0.0)
            assigned[rows] |= piece
            B_star = B_j.scaled(star)
            atom = _atom_on_rows(g, rows.start, block, B_star, np.inf,
                                 delta=B_star.radius / cutoff_m(B_star.center_array))
            terms.append((mu, atom))
        active = relevant.any(axis=1) & (hat_total > 0)
        if active.any():
            partition_defect = max(partition_defect,
                                   float(np.max(np.abs(phi_sum[active] - 1.0))))

    left = (absf > 0) & ~assigned
    weights = g.gamma_y[:, None] * g.wt[None, :]
    total = float(np.sum(absf * weights))
    resid = float(np.sum(absf[left] * weights[left]))
    return Decomposition(
        terms, source_norm, np.inf, spec, diagnostics,
        residual_mass=resid / total if total > 0 else 0.0,
        audit={"C_overlap": C, "inflation_factor": star,
               "k_range": (kmin, kmax),
               "partition_defect": partition_defect},
        unassigned=int(np.count_nonzero(left)),
    )


def reconstruct(d: Decomposition) -> GridFunction:
    """Sum of lambda * atom over the decomposition."""
    if not d.terms:
        raise ValueError("empty decomposition has no grid to reconstruct on")
    g = d.terms[0][1].grid
    total = np.zeros((g.n_spatial, g.nt))
    for lam, atom in d.terms:
        if atom.grid != g:
            raise ValueError("grid mismatch among atoms")
        total[atom.box] += lam * atom.block
    return GridFunction(g, total)


def coefficient_report(d: Decomposition) -> dict:
    total = float(sum(abs(lam) for lam, _ in d.terms))
    ratio = 0.0 if not d.terms else (total / d.source_norm
                                     if d.source_norm > 0 else np.inf)
    return {
        "sum_abs_lambda": total,
        "source_norm": d.source_norm,
        "ratio": ratio,
        "n_atoms": len(d.terms),
        "residual_mass": d.residual_mass,
    }


# -- export / import -------------------------------------------------------


def export_decomposition(d: Decomposition, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (lam, atom) in enumerate(d.terms):
        fname = f"atom_{i:04d}.gtnt"
        gridio.write_grid_function(atom.expand(), out / fname)
        entries.append({
            "lambda": lam,
            "ball": {"center": list(atom.ball.center), "radius": atom.ball.radius},
            "q": "inf" if atom.q == np.inf else atom.q,
            "delta": atom.delta,
            "atom_file": fname,
        })
    manifest = {
        "source_norm": d.source_norm,
        "q": "inf" if d.q == np.inf else d.q,
        "alpha": d.spec.alpha,
        "beta": d.spec.beta,
        "residual_mass": d.residual_mass,
        "diagnostics": d.diagnostics,
        "audit": d.audit,
        "terms": entries,
    }
    path = out / "decomposition.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def import_decomposition(manifest_path) -> Decomposition:
    """Read a manifest written by export_decomposition, cropping each atom
    as it is read.  A file that is not JSON, a missing key or a value of the
    wrong type is a ValueError naming the file."""
    path = Path(manifest_path)
    try:
        data = json.loads(path.read_text())
    except ValueError as e:
        raise ValueError(f"{path}: decomposition manifest is not JSON ({e})") from None
    try:
        spec = ConeSpec(data["alpha"], data["beta"])
        q = np.inf if data["q"] == "inf" else float(data["q"])
        terms = []
        for entry in data["terms"]:
            gf = gridio.read_grid_function(path.parent / entry["atom_file"])
            ball = Ball(tuple(entry["ball"]["center"]), entry["ball"]["radius"])
            aq = np.inf if entry["q"] == "inf" else float(entry["q"])
            terms.append((entry["lambda"], Atom.crop(gf, ball, aq, entry["delta"])))
        return Decomposition(terms, data["source_norm"], q, spec,
                             data.get("diagnostics", []),
                             data.get("residual_mass", 0.0),
                             data.get("audit", {}))
    except KeyError as e:
        raise ValueError(f"{path}: decomposition manifest has no key {e}") from None
    except TypeError as e:
        raise ValueError(f"{path}: not a decomposition manifest ({e})") from None
