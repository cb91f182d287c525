"""Atoms and the constructive atomic decomposition.

An atom at exponent q is supported in the tent over an admissible ball B
and normalized by ||a||_{L^q(dgamma dt/t)} <= gamma(B)^{-(1-1/q)} (sup-norm
bound gamma(B)^{-1} at q = inf); its area function then has L^1(gamma) norm
at most 1.

Both decompositions run one level-set pipeline: the level sets
O_k = {S f > 2^k} as the columns of one array, the atoms of level k in the
band T(O_k) minus T(O_{k+1}) with two tents alive at a time, and one count
of the cells no atom holds.  At q < inf the sets are inflated by density
points, O_k -> O_k^{[etabar]}, and the bands taken at shrunken apertures;
Whitney cubes of the inflated sets get centered balls large enough that the
shrunken tent of O_k^{[etabar]} over a cube column lies inside the tent of
the ball, and each (level, cube) piece is one atom.  On the grid the radius
is the prescribed multiple of the cube diameter, enlarged when necessary by
the measured cube-to-complement distance (plus one cell) so that the tent
inclusion holds node-exactly and the reconstruction is exact with zero
residual.  The radii of a level come from the cover's arrays at once; a cube
whose nodes meet no band cell is skipped, and a Ball and its gamma(B) are
built only for a piece with mass, the few cubes that make an atom.  The
q = inf path uses Vitali-type ball covers of the level sets and a
piecewise-linear partition of unity instead: each ball's hat lives on the
ball's own nodes, and a Ball is built only for a piece that makes an atom.

An atom is stored on its support box, a range of flat spatial indices times
a range of t indices, as the block of values inside it.  Both decompositions
give an atom its values on the nodes of its cube or ball, and an atom is
expanded to the whole grid only one at a time, to be checked or written.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._kernels import (
    _C_OVERLAP, _ball_tent, _cone_area, _density_columns, _distance_rows, _write_gtnt,
)
from .geometry import Ball, ConeSpec, cutoff_m, gamma_ball
from .grid import GridFunction, HalfSpaceGrid, RegionMask, SpatialFunction, lp_gamma_norm
from .functionals import area_S, cone_caps, default_dictionary
from .whitney import (
    doubling_constant,
    etabar_from_doubling,
    whitney_balls,
    whitney_cubes,
)
from . import grid as gridio

__all__ = [
    "Atom",
    "Decomposition",
    "coefficient_report",
    "decompose",
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

    @property
    def delta(self) -> float:
        """The realized admissibility level r_B / m(c_B) of the atom's ball."""
        return self.ball.radius / cutoff_m(self.ball.center)

    @classmethod
    def crop(cls, f: GridFunction, ball: Ball, q: float) -> "Atom":
        """The atom with values f, kept on the bounding box of the values
        that are not +0.0.  A -0.0 counts, so expand() gives f back to the
        byte."""
        return _atom_on_nodes(f.grid, np.arange(f.grid.n_spatial), f.values, ball, q)

    def expand(self) -> GridFunction:
        """The atom on the whole grid."""
        values = np.zeros((self.grid.n_spatial, self.grid.nt))
        values[self.box] = self.block
        return GridFunction(self.grid, values)


def _atom_on_nodes(grid: HalfSpaceGrid, nodes: np.ndarray, values: np.ndarray,
                   ball: Ball, q: float) -> Atom:
    """The atom whose values are `values` on the ascending spatial nodes
    `nodes` (every t column) and +0.0 elsewhere, cropped as in Atom.crop."""
    kept = np.signbit(values) | (values != 0.0)
    r = np.flatnonzero(kept.any(axis=1))
    c = np.flatnonzero(kept.any(axis=0))
    i0, i1 = (int(r[0]), int(r[-1]) + 1) if r.size else (0, 0)
    c0, c1 = (int(c[0]), int(c[-1]) + 1) if c.size else (0, 0)
    r0, r1 = (int(nodes[i0]), int(nodes[i1 - 1]) + 1) if r.size else (0, 0)
    block = np.zeros((r1 - r0, c1 - c0))
    block[nodes[i0:i1] - r0] = values[i0:i1, c0:c1]
    block.setflags(write=False)
    return Atom(grid, (slice(r0, r1), slice(c0, c1)), block, ball, q)


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


def validate_atom(a: Atom, spec: ConeSpec) -> dict:
    """Three checks: tent support, the normalization bound, and the
    L^1(gamma) bound on the area function of the atom (5% slack).

    All three run on the atom's box: the caps and the tent of its rows x t
    columns, and the area function from the block's nonzero cells, which
    are those np.nonzero finds on the expanded atom, in the same order, so
    area_l1 is the whole-grid value to the bit.  At q < inf norm_value sums
    the block, an order other than a whole-grid sum, within 1e-12 relative
    of it; it feeds only norm_ok, which has 1e-9 slack."""
    g = a.grid
    rows, cols = a.box
    caps = spec.caps(g.m_y[rows][:, None], g.t[cols])
    in_tent = _ball_tent(g.points[rows], a.ball.center_array, a.ball.radius, caps)
    support_ok = bool(not np.any((a.block != 0.0) & ~in_tent))

    gB = gamma_ball(a.ball)
    absf = np.abs(a.block)
    if a.q == np.inf:
        norm_value = float(np.max(absf, initial=0.0))
        norm_bound = 1.0 / gB
    else:
        absf **= a.q
        absf *= g.gamma_y[rows, None]
        absf *= g.wt[None, cols]
        norm_value = float(np.sum(absf)) ** (1.0 / a.q)
        norm_bound = gB ** (-(1.0 - 1.0 / a.q))
    norm_ok = bool(norm_value <= norm_bound * (1.0 + 1e-9))
    r, c = np.nonzero(a.block)
    S, = _cone_area(g, (spec,), r + rows.start, c + cols.start, a.block[r, c], a.q)
    s_l1 = lp_gamma_norm(SpatialFunction(g, S), 1)
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


def _level_sets(S, scale: np.ndarray):
    """((kmin, kmax), {S > 2^k} for k = kmin .. kmax + 1 as the columns of an
    (N, L) bool array), kmin and kmax from the positive values of `scale`
    (S, or |f| at q = inf); None when it has none.  S must vanish somewhere."""
    if np.all(S.values > 0.0):
        raise ValueError("the area function is positive at every grid node; the "
                         "level-set decomposition needs S f = 0 somewhere on the box")
    pos = scale[scale > 0]
    if pos.size == 0:
        return None
    kmin = int(np.floor(np.log2(pos.min()))) - 1
    kmax = int(np.ceil(np.log2(pos.max())))
    return (kmin, kmax), S.values[:, None] > np.ldexp(1.0, range(kmin, kmax + 2))


def _bands(g: HalfSpaceGrid, sets: np.ndarray, caps: np.ndarray, cover):
    """(i, T(O_i) & ~T(O_{i+1}), cover(O_i)) for each nonempty column O_i of
    `sets` but the last, T the tent under the (N, nt) cone caps `caps` and
    cover whitney_cubes or whitney_balls.  One tent per column, and no more
    than two alive at a time, taken from the complement distance its cover
    measured; an empty O has dist(y, O^c) = 0 and no cover."""
    def tent(O):
        c = cover(RegionMask(g, O)) if O.any() else None
        return c, (0.0 if c is None else c.node_dist[:, None]) >= caps

    upper = tent(sets[:, 0])
    for i in range(sets.shape[1] - 1):
        (c, band), upper = upper, tent(sets[:, i + 1])
        if c is not None:
            band &= ~upper[1]
            yield i, band, c


def _left_out(f: GridFunction, assigned: np.ndarray, power: np.ndarray):
    """(residual_mass, unassigned): the share of the integral of `power`
    (|f|^q, or |f| at q = inf) on the nonzero cells no atom holds, and their count."""
    g = f.grid
    left = (f.values != 0.0) & ~assigned
    weights = g.gamma_y[:, None] * g.wt[None, :]
    resid = float(np.sum(power[left] * weights[left]))
    total = float(np.sum(np.multiply(power, weights, out=weights)))
    return resid / total if total > 0 else 0.0, int(np.count_nonzero(left))


def decompose(f: GridFunction, q: float, spec: ConeSpec,
              eta: float = 0.5) -> Decomposition:
    """Atomic decomposition of f in the T^{1,q} scale, q in [1, inf].
    `eta` shrinks the apertures of the q < inf bands; q = inf reads none."""
    if not (1.0 <= q <= np.inf):
        raise ValueError("q must lie in [1, inf]")
    if q == np.inf:
        return _decompose_sup(f, spec)
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    g = f.grid
    qprime_exp = 1.0 - 1.0 / q          # gamma(B)^{1/q'} exponent
    S = area_S(f, q, spec)
    levels = _level_sets(S, S.values)
    if levels is None:
        return Decomposition([], 0.0, q, spec)
    (kmin, kmax), O = levels
    source_norm = lp_gamma_norm(S, 1)

    lam = spec.beta * (1.0 + spec.beta)
    C_doub = doubling_constant(lam, default_dictionary(g, lam))
    etabar = etabar_from_doubling(C_doub)
    C_inflate = 1.0 + 5.0 / (1.0 - eta)

    # inflated level sets O_k^[etabar] in column k - kmin: the complement of
    # the density points of F_k = ~O_k (all of them where O_k is empty)
    inflated = ~_density_columns(g, ~O, etabar, lam)

    nesting_ok = not np.any(inflated[:, 1:] & ~inflated[:, :-1])
    whole = np.flatnonzero(inflated.all(axis=0))
    if whole.size:
        raise ValueError(f"the inflated level set at k = {kmin + whole[0]} covers the "
                         "whole box, so it has no complement to measure Whitney cubes from; "
                         "the zeros of S f are too sparse for the level-set decomposition")

    shrink = 1.0 - eta
    caps = cone_caps(g, spec)
    weights = g.gamma_y[:, None] * g.wt[None, :]
    cell = g.cell
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)
    terms = []
    diagnostics = []
    mu_bound_worst = 0.0

    for i, band, cover in _bands(g, inflated, shrink * caps, whitney_cubes):
        k = kmin + i
        diagnostics.append({
            "k": k,
            "level_set_gamma": float(g.gamma_y[O[:, i]].sum()),
            "inflated_gamma": float(g.gamma_y[inflated[:, i]].sum()),
            "n_cubes": len(cover.cubes),
        })
        # prescribed inflation of the cube diameter d, enlarged so the
        # measured column distances fit inside the ball tent node-exactly
        d = 2.0 ** -cover.levels * np.sqrt(g.n)
        radii = np.maximum(C_inflate * d, d + (cover.cube_dist + d) / shrink) + cell * 1e-9
        for nodes, c_j, r_j in zip(cover.nodes, cover.centers, radii):
            in_band = band[nodes]
            if not in_band.any():
                continue
            piece = in_band & _ball_tent(g.points[nodes], c_j, r_j, caps[nodes])
            vals = f.values[nodes] * piece
            mu = float(np.sum(np.abs(vals) ** q * weights[nodes]))
            assigned[nodes] |= piece
            if mu == 0.0:
                continue
            B_j = Ball(tuple(c_j), r_j)
            gB = gamma_ball(B_j)
            lam_jk = gB ** qprime_exp * mu ** (1.0 / q)
            terms.append((lam_jk, _atom_on_nodes(g, nodes, vals / lam_jk, B_j, q)))
            mu_bound_worst = max(mu_bound_worst, mu / (gB * 2.0 ** (q * k)))

    residual, unassigned = _left_out(f, assigned, np.abs(f.values) ** q)
    return Decomposition(
        terms, source_norm, q, spec, diagnostics, residual,
        audit={"nesting_ok": nesting_ok, "etabar": etabar,
               "doubling_constant": C_doub, "C_inflate": C_inflate,
               "mu_over_gamma_2qk_max": mu_bound_worst,
               "k_range": (kmin, kmax)},
        unassigned=unassigned,
    )


def _decompose_sup(f: GridFunction, spec: ConeSpec) -> Decomposition:
    """decompose at q = inf (continuous-intent values).

    Level sets come from the sup area function, covers are Vitali-type
    Whitney balls, and overlapping pieces are split by a piecewise-linear
    partition of unity (hat weight r_j - |y - c_j| on each ball, normalized
    to sum to one wherever f is nonzero in the band).
    """
    g = f.grid
    S = area_S(f, np.inf, spec)
    absf = np.abs(f.values)
    levels = _level_sets(S, absf)
    if levels is None:
        return Decomposition([], 0.0, np.inf, spec)
    (kmin, kmax), O = levels
    source_norm = lp_gamma_norm(S, 1)
    C = _C_OVERLAP
    star = 2.0 * C + 3.0

    terms = []
    diagnostics = []
    partition_defect = 0.0
    assigned = np.zeros((g.n_spatial, g.nt), dtype=bool)

    for i, band, cover in _bands(g, O, cone_caps(g, spec), whitney_balls):
        k = kmin + i
        diagnostics.append({
            "k": k,
            "level_set_gamma": float(g.gamma_y[O[:, i]].sum()),
            "n_balls": len(cover.balls),
        })
        # each ball's hat on its nodes; bincount adds in ball order per node
        hats = [r_j - _distance_rows(g.points[nodes], c_j)
                for nodes, c_j, r_j in zip(cover.nodes, cover.centers, cover.radii)]
        hat_total = np.bincount(np.concatenate(cover.nodes), np.concatenate(hats),
                                g.n_spatial)
        relevant = band & (absf > 0)
        phi_sum = np.zeros(g.n_spatial)
        for nodes, c_j, r_j, w in zip(cover.nodes, cover.centers, cover.radii, hats):
            phi = w / hat_total[nodes]
            phi_sum[nodes] += phi
            piece = relevant[nodes] & (phi[:, None] > 0)
            if not piece.any():
                continue
            B_star = Ball(c_j, star * r_j)
            mu = 2.0 ** (k + 1) * gamma_ball(B_star)
            block = np.where(piece, f.values[nodes] * phi[:, None] / mu, 0.0)
            assigned[nodes] |= piece
            terms.append((mu, _atom_on_nodes(g, nodes, block, B_star, np.inf)))
        active = relevant.any(axis=1) & (hat_total > 0)
        if active.any():
            partition_defect = max(partition_defect,
                                   float(np.max(np.abs(phi_sum[active] - 1.0))))

    residual, unassigned = _left_out(f, assigned, absf)
    return Decomposition(
        terms, source_norm, np.inf, spec, diagnostics, residual,
        audit={"C_overlap": C, "inflation_factor": star,
               "k_range": (kmin, kmax),
               "partition_defect": partition_defect},
        unassigned=unassigned,
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
    """Write the atoms and their manifest, decomposition.json, into out_dir,
    and remove any atom file there that the manifest does not list."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (lam, atom) in enumerate(d.terms):
        fname = f"atom_{i:04d}.gtnt"
        # the rows of the atom's box; the file is that of atom.expand()
        rows, cols = atom.box
        band = np.zeros((rows.stop - rows.start, atom.grid.nt))
        band[:, cols] = atom.block
        _write_gtnt(atom.grid, out / fname, band, rows.start)
        entries.append({
            "lambda": lam,
            "ball": asdict(atom.ball),
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
    # atom files of an earlier, larger decomposition in out_dir are not ours
    listed = {entry["atom_file"] for entry in entries}
    for stale in out.glob("atom_*.gtnt"):
        if stale.name not in listed:
            stale.unlink()
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
        q = float(data["q"])
        diagnostics, audit = data.get("diagnostics", []), data.get("audit", {})
        for key, value, kind in (("diagnostics", diagnostics, list), ("audit", audit, dict)):
            if not isinstance(value, kind):
                raise TypeError(f"{key} must be a {kind.__name__}, "
                                f"not {type(value).__name__}")
        terms = []
        for entry in data["terms"]:
            gf = gridio.read_grid_function(path.parent / entry["atom_file"])
            ball = Ball(tuple(entry["ball"]["center"]), entry["ball"]["radius"])
            terms.append((float(entry["lambda"]),
                          Atom.crop(gf, ball, float(entry["q"]))))
        return Decomposition(terms, float(data["source_norm"]), q, spec, diagnostics,
                             float(data.get("residual_mass", 0.0)), audit)
    except KeyError as e:
        raise ValueError(f"{path}: decomposition manifest has no key {e}") from None
    except TypeError as e:
        raise ValueError(f"{path}: not a decomposition manifest ({e})") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
