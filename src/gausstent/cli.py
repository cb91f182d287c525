"""Command-line front end: norms, decompositions, verification batteries.

Commands
    norm          tent-space norm of a grid function file
    decompose     atomic decomposition, written as JSON + atom files
    verify        the property-test battery; nonzero exit on any failure
    independence  aperture sweep: norm ratio matrix over (alpha, beta)
    carleson      Carleson norm of a discrete measure (+ optional pairing)
    embed         H^1-atom checks for the convolution operator

Configuration comes from an INI file (sections [grid], [params],
[dictionary]); command-line flags override file values.  All randomized
suites draw from a seeded generator, and identical config + seed give
byte-identical JSON reports up to the timestamp field.

Exit codes: 0 success, 1 parse/configuration error, 2 precondition
violation, 3 numeric failure (including failed verification checks).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (
    Ball, ConeSpec, compare_tents, comparison_lemma_check,
    cutoff_m, gamma_ball_bounds_check,
)
from .grid import GridFunction, HalfSpaceGrid, halfspace_integral, read_grid_function
from .functionals import BallDictionary, ExponentPair, default_dictionary, tent_norm
from .atomic import (
    coefficient_report, decompose, decompose_sup, export_decomposition,
    import_decomposition, reconstruct, validate_atom,
)
from .duality import (
    check_carleson_pairing, check_duality_pq, carleson_norm, read_measure_csv,
)
from .embedding import check_h1_atom, default_phi
from .families import boundary_atom, random_atom, random_bump, tent_indicator

EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_NUMERIC = 3

APERTURE_GRID = (0.5, 1.0, 2.0)


@dataclass
class RunConfig:
    nx: int = 512
    nt: int = 128
    box_lo: float = -8.0
    box_hi: float = 8.0
    t_min: float = 1e-3
    t_max: float = 8.0
    p: float = 1.0
    q: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 2.0          # defaults to 2*beta, kept in sync on load
    eta: float = 0.5
    dict_stride: int = 4
    dict_levels: int = 7
    seed: int = 42
    threads: int = 1
    out: str = "."

    def grid(self) -> HalfSpaceGrid:
        return HalfSpaceGrid(((self.box_lo, self.box_hi),), (self.nx,),
                             self.t_min, self.t_max, self.nt)

    def spec(self) -> ConeSpec:
        return ConeSpec(self.alpha, self.beta)

    def dictionary(self, grid: HalfSpaceGrid) -> BallDictionary:
        return default_dictionary(grid, self.beta, self.dict_stride, self.dict_levels)


_CONFIG_KEYS = {
    "grid": {"nx": int, "nt": int, "box_lo": float, "box_hi": float,
             "t_min": float, "t_max": float},
    "params": {"p": float, "q": float, "alpha": float, "beta": float,
               "delta": float, "eta": float},
    "dictionary": {"stride": int, "levels": int},
}


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    delta_given = False
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cast = _CONFIG_KEYS[section][key]
            try:
                value = np.inf if raw == "inf" and cast is float else cast(raw)
            except ValueError as e:
                raise ConfigError(f"[{section}] {key} expects {cast.__name__}, "
                                  f"got '{raw}'") from e
            if section == "dictionary":
                if value < 1:
                    raise ConfigError(f"[dictionary] {key} must be at least 1, got {raw}")
                setattr(cfg, f"dict_{key}", value)
            else:
                setattr(cfg, key, value)
            if (section, key) == ("params", "delta"):
                delta_given = True
    if not delta_given:
        cfg.delta = 2.0 * cfg.beta
    return cfg


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    if args.grid:
        try:
            nx, nt = (int(v) for v in args.grid.split(","))
        except ValueError as e:
            raise ConfigError("--grid expects 'nx,nt'") from e
        cfg = replace(cfg, nx=nx, nt=nt)
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    return replace(cfg, seed=args.seed, threads=args.threads, out=args.out)


def _report_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _emit(report: dict, cfg: RunConfig, name: str) -> None:
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path = _report_path(cfg, name)
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=_jsonify))
    print(json.dumps({k: v for k, v in report.items() if k != "timestamp"},
                     indent=2, sort_keys=True, default=_jsonify))


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Ball):
        return {"center": list(obj.center), "radius": obj.radius}
    if obj is np.inf:
        return "inf"
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _grid_meta(grid: HalfSpaceGrid) -> dict:
    return {"box": list(grid.spatial_box[0]), "nx": grid.nx[0],
            "t_min": grid.t_min, "t_max": grid.t_max, "nt": grid.nt}


# -- commands --------------------------------------------------------------


def cmd_norm(cfg: RunConfig, args) -> int:
    f = read_grid_function(args.input, None if args.infer_grid else cfg.grid())
    dict_ = cfg.dictionary(f.grid) if cfg.p == np.inf else None
    norm = tent_norm(f, ExponentPair(cfg.p, cfg.q), cfg.alpha, cfg.beta,
                     dict_, continuous_intent=args.continuous)
    if not np.isfinite(norm):
        raise ArithmeticError("norm is not finite")
    _emit({"p": cfg.p, "q": cfg.q, "alpha": cfg.alpha, "beta": cfg.beta,
           "norm": norm, "grid_meta": _grid_meta(f.grid)}, cfg, "norm.json")
    return 0


def cmd_decompose(cfg: RunConfig, args) -> int:
    f = read_grid_function(args.input, None if args.infer_grid else cfg.grid())
    spec = ConeSpec(cfg.alpha, cfg.beta)
    if args.sup:
        d = decompose_sup(f, spec)
    else:
        d = decompose(f, cfg.q, spec, eta=cfg.eta)
    if d.terms:
        export_decomposition(d, Path(cfg.out) / "decomposition")
    rep = coefficient_report(d)
    rep["audit"] = d.audit
    _emit(rep, cfg, "decompose.json")
    if d.unassigned:
        raise ArithmeticError(f"{d.unassigned} nonzero cells of the input belong to "
                              "no atom; the reconstruction leaves them out")
    return 0


def cmd_independence(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    rng = np.random.default_rng(cfg.seed)
    if args.input:
        funcs = [read_grid_function(args.input, None if args.infer_grid else grid)]
    else:
        funcs = [random_bump(grid, rng) for _ in range(5)]
    pq = ExponentPair(cfg.p if cfg.p != np.inf else 1.0, cfg.q)
    combos = [(a, b) for a in APERTURE_GRID for b in APERTURE_GRID]
    summary = []
    for fi, f in enumerate(funcs):
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            norms = list(pool.map(
                lambda ab: tent_norm(f, pq, ab[0], ab[1]), combos))
        norms = np.asarray(norms)
        if not np.all(np.isfinite(norms)) or np.any(norms <= 0):
            raise ArithmeticError("non-finite or zero norm in the sweep")
        ratio = norms[:, None] / norms[None, :]
        path = _report_path(cfg, f"independence_f{fi}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_beta"] + [f"{a}_{b}" for a, b in combos])
            for (a, b), row in zip(combos, ratio):
                writer.writerow([f"{a}_{b}"] + [f"{v:.12g}" for v in row])
        summary.append({"function": fi,
                        "max_ratio": float(ratio.max()),
                        "min_ratio": float(ratio.min())})
    overall = max(s["max_ratio"] for s in summary)
    _emit({"p": pq.p, "q": pq.q, "per_function": summary,
           "overall_max_ratio": overall,
           "grid_meta": _grid_meta(grid)}, cfg, "independence.json")
    return 0


def cmd_carleson(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    mu = read_measure_csv(args.measure)
    dict_ = cfg.dictionary(grid).admissible(cfg.delta)
    rep = carleson_norm(mu, cfg.alpha, cfg.beta, cfg.delta, dict_)
    out = {"norm": rep["norm"], "witness_ball": rep["witness_ball"],
           "n_balls": len(rep["values"]), "delta": cfg.delta}
    if args.function:
        f = read_grid_function(args.function,
                               None if args.infer_grid else grid)
        out["pairing"] = check_carleson_pairing(
            mu, f, cfg.alpha, cfg.beta, cfg.delta, dict_)
    _emit(out, cfg, "carleson.json")
    return 0


def _h1_checks(atoms, grid: HalfSpaceGrid, spec: ConeSpec):
    """check_h1_atom on each atom, and the untruncated operator on the
    boundary atom, whose support check must fail.  Returns the reports,
    whether the sentinel failed, and whether everything came out right.
    `atoms` may be a generator; map drops each atom before drawing the next."""
    phi = default_phi()
    reports = list(map(lambda a: check_h1_atom(a, phi), atoms))
    sentinel = check_h1_atom(boundary_atom(grid, spec), phi, local=False)
    caught = not sentinel["support_ok"]
    return reports, caught, all(r["all_ok"] for r in reports) and caught


def cmd_embed(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    spec = ConeSpec(cfg.alpha, cfg.beta)
    if args.input:
        d = import_decomposition(args.input)
        atoms = [a for _, a in d.terms if a.q == 2.0][:10]
        if not atoms:
            raise ValueError(f"{args.input}: the decomposition holds no q = 2 atom "
                             "to check")
    else:
        rng = np.random.default_rng(cfg.seed)
        atoms = [random_atom(grid, spec, 2.0, rng) for _ in range(3)]
        atoms.append(boundary_atom(grid, spec))
    reports, caught, ok = _h1_checks(atoms, grid, spec)
    _emit({"n_atoms": len(atoms),
           "checks": [{k: r[k] for k in ("support_ok", "average_ok",
                                         "l2_constant")} for r in reports],
           "mutation_sentinel_failed_support": caught,
           "all_ok": ok}, cfg, "embed.json")
    return 0 if ok else EXIT_NUMERIC


# -- the verify battery ----------------------------------------------------


def _suite_tent_compare(cfg, grid, rng):
    failures = 0
    for c, beta in ((3.0, 1.0), (-2.5, 2.0)):
        B = Ball((c,), 0.8 * beta * cutoff_m(c))
        # one draw at a time keeps the generator's stream
        ys, ts = np.array([(rng.uniform(c - 2, c + 2),
                            np.exp(rng.uniform(np.log(1e-3), np.log(8.0))))
                           for _ in range(2000)]).T
        rep = compare_tents(B, cfg.alpha, beta, ys[:, None], ts)
        failures += rep["n_off_axis"]
    return {"off_axis_disagreements": failures, "ok": failures == 0}


def _suite_comparison_lemma(cfg, grid, rng):
    # one draw at a time keeps the generator's stream; one array pass checks
    yv, b, u = np.array([(rng.uniform(-5, 5), rng.choice((0.5, 1.0, 2.0)),
                          rng.uniform(-1, 1)) for _ in range(5000)]).T
    x = yv + u * b * cutoff_m(yv[:, None]) * 0.999999
    bad = int(np.sum(~comparison_lemma_check(x[:, None], yv[:, None], b)))
    return {"violations": bad, "ok": bad == 0}


def _suite_ball_bracket(cfg, grid, rng):
    c, beta, u = np.array([(rng.uniform(-6, 6), rng.choice((0.5, 1.0, 2.0)),
                            rng.uniform(0.05, 1.0)) for _ in range(200)]).T
    r = u * beta * cutoff_m(c[:, None])
    bad = int(np.sum(~gamma_ball_bounds_check(c[:, None], r, beta)))
    return {"violations": bad, "ok": bad == 0}


def _suite_tpp_identity(cfg, grid, rng):
    worst = 0.0
    for _ in range(3):
        f = random_bump(grid, rng)
        for p in (1.0, 2.0):
            norm = tent_norm(f, ExponentPair(p, p), cfg.alpha, cfg.beta)
            direct = halfspace_integral(
                GridFunction(grid, np.abs(f.values) ** p)) ** (1.0 / p)
            worst = max(worst, abs(norm - direct) / direct)
    return {"max_rel_err": worst, "ok": worst <= 1e-9}


def _suite_atom_bound(cfg, grid, rng):
    spec = ConeSpec(cfg.alpha, cfg.beta)
    worst = 0.0
    for q in (1.0, 2.0, np.inf):
        for _ in range(2):
            a = random_atom(grid, spec, q, rng)
            worst = max(worst, validate_atom(a, spec)["area_l1"])
    return {"max_area_l1": worst, "ok": worst <= 1.05}


def _suite_duality_pq(cfg, grid, rng):
    spec = ConeSpec(cfg.alpha, cfg.beta)
    all_ok = True
    for _ in range(6):
        f, g = random_bump(grid, rng), random_bump(grid, rng)
        rep = check_duality_pq(f, g, 2.0, 2.0, spec)
        all_ok &= rep["identity_ok"] and rep["holder1_ok"] and rep["holder2_ok"]
    return {"ok": bool(all_ok)}


def _suite_decomposition(cfg, grid, rng):
    spec = ConeSpec(cfg.alpha, cfg.beta)
    f = tent_indicator(grid, spec, 0.5, 0.4)
    d = decompose(f, cfg.q, spec, eta=cfg.eta)
    r = reconstruct(d)
    recon_err = float(np.max(np.abs(r.values - f.values) * (r.values != 0)))
    atoms_ok = all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)
    ok = recon_err <= 1e-12 and d.residual_mass < 1e-10 and atoms_ok
    return {"recon_err": recon_err, "residual": d.residual_mass,
            "atoms_ok": atoms_ok, "ok": bool(ok)}


def _suite_embedding(cfg, grid, rng):
    spec = ConeSpec(cfg.alpha, cfg.beta)
    atoms = (random_atom(grid, spec, 2.0, rng) for _ in range(2))
    _, caught, ok = _h1_checks(atoms, grid, spec)
    return {"sentinel_failed_support": caught, "ok": ok}


_VERIFY_SUITES = (
    ("tent_compare", _suite_tent_compare),
    ("comparison_lemma", _suite_comparison_lemma),
    ("ball_measure_bracket", _suite_ball_bracket),
    ("tpp_identity", _suite_tpp_identity),
    ("atom_bound", _suite_atom_bound),
    ("duality_pq", _suite_duality_pq),
    ("decomposition_roundtrip", _suite_decomposition),
    ("embedding_atom", _suite_embedding),
)


def cmd_verify(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    selected = args.suite or [name for name, _ in _VERIFY_SUITES]
    known = {name for name, _ in _VERIFY_SUITES}
    unknown = set(selected) - known
    if unknown:
        raise ConfigError(f"unknown verify suites: {sorted(unknown)}")
    if not selected:
        raise ConfigError("empty battery selection")
    results = {}
    for name, fn in _VERIFY_SUITES:
        if name not in selected:
            continue
        # a fresh generator per suite keeps the suites order-independent
        rng = np.random.default_rng([cfg.seed, *name.encode()])
        results[name] = fn(cfg, grid, rng)
        print(f"{name}: {'pass' if results[name]['ok'] else 'FAIL'}")
    all_ok = all(r["ok"] for r in results.values())
    _emit({"suites": results, "all_ok": all_ok, "seed": cfg.seed,
           "grid_meta": _grid_meta(grid)}, cfg, "verify.json")
    return 0 if all_ok else EXIT_NUMERIC


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausstent",
        description="Numerical toolkit for Gaussian tent spaces.")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--grid", default=None, help="override as 'nx,nt'")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="tent-space norm of a function file")
    p.add_argument("--input", required=True)
    p.add_argument("--continuous", action="store_true",
                   help="assert continuous intent (required for q = inf)")
    p.add_argument("--infer-grid", action="store_true")

    p = sub.add_parser("decompose", help="atomic decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--sup", action="store_true", help="q = inf path")
    p.add_argument("--infer-grid", action="store_true")

    p = sub.add_parser("verify", help="run the property-test battery")
    p.add_argument("--suite", action="append", default=None,
                   help="run only the named suite (repeatable)")

    p = sub.add_parser("independence", help="aperture norm-ratio sweep")
    p.add_argument("--input", default=None)
    p.add_argument("--infer-grid", action="store_true")

    p = sub.add_parser("carleson", help="Carleson norm of a measure CSV")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", default=None)
    p.add_argument("--infer-grid", action="store_true")

    p = sub.add_parser("embed", help="H^1-atom checks")
    p.add_argument("--input", default=None,
                   help="decomposition manifest to pull q=2 atoms from")
    return parser


_COMMANDS = {
    "norm": cmd_norm,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "independence": cmd_independence,
    "carleson": cmd_carleson,
    "embed": cmd_embed,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        cfg = _apply_flags(load_config(args.config), args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ArithmeticError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
