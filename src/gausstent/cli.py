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
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .geometry import (
    Ball, ConeSpec, compare_tents, comparison_lemma_check,
    cutoff_m, gamma_ball_bounds_check,
)
from .grid import GridFunction, HalfSpaceGrid, halfspace_integral, read_grid_function
from .functionals import (
    BallDictionary, ExponentPair, default_dictionary, tent_norm, tent_norms,
)
from .atomic import (
    coefficient_report, decompose, export_decomposition,
    import_decomposition, reconstruct, validate_atom,
)
from .duality import (
    check_carleson_pairing, check_duality_pq, carleson_norm, read_measure_csv,
)
from .embedding import check_h1_atom
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
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name].items()) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as e:
        detail = " ".join(str(e).split())     # some parser messages span lines
        raise ConfigError(f"malformed config file {path}: {detail}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, items in sections.items():
        if section not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in items.items():
            if key not in _CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            cast = _CONFIG_KEYS[section][key]
            try:
                value = cast(raw)
            except ValueError as e:
                raise ConfigError(f"[{section}] {key} expects {cast.__name__}, "
                                  f"got {raw!r}") from e
            if section == "dictionary":
                if value < 1:
                    raise ConfigError(f"[dictionary] {key} must be at least 1, got {raw}")
                setattr(cfg, f"dict_{key}", value)
            else:
                setattr(cfg, key, value)
    if "delta" not in sections.get("params", {}):
        cfg.delta = 2.0 * cfg.beta
    return cfg


def _available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _apply_flags(cfg: RunConfig, args) -> RunConfig:
    if args.grid:
        try:
            nx, nt = (int(v) for v in args.grid.split(","))
        except ValueError as e:
            raise ConfigError("--grid expects 'nx,nt'") from e
        cfg = replace(cfg, nx=nx, nt=nt)
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    return replace(cfg, seed=args.seed, out=args.out)


def _report_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _emit(report: dict, cfg: RunConfig, name: str) -> None:
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path = _report_path(cfg, name)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({k: v for k, v in report.items() if k != "timestamp"},
                     indent=2, sort_keys=True))


def _grid_meta(grid: HalfSpaceGrid) -> dict:
    """The grid of a report; in 2-D one [lo, hi] and one count per axis."""
    box, nx = [list(b) for b in grid.spatial_box], list(grid.nx)
    return {"box": box[0] if grid.n == 1 else box, "nx": nx[0] if grid.n == 1 else nx,
            "t_min": grid.t_min, "t_max": grid.t_max, "nt": grid.nt}


# -- worker processes ------------------------------------------------------

_POOL_JOB = None                # (fn, tasks) in a worker of _pool_map


def _pool_init(fn, tasks) -> None:
    global _POOL_JOB
    _POOL_JOB = fn, tasks
    # a worker blocked on its task queue would outlive a command killed by a
    # signal; this thread ends the worker when the command's process ends
    import threading
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _exit_with_parent() -> None:
    import signal
    from multiprocessing import connection, parent_process
    connection.wait([parent_process().sentinel])
    os.kill(os.getpid(), signal.SIGKILL)


def _pool_task(i: int):
    fn, tasks = _POOL_JOB
    return fn(tasks[i])


def _pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(t) for t in tasks], computed on min(workers, len(tasks)) worker
    processes forked from this one, or in this process when that is 1.
    The workers inherit fn and the tasks, so only indices and results are
    pickled.  An exception in a worker is raised here, a worker that dies
    raises ArithmeticError, and every worker has exited when this returns."""
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here, as every other command would pay for it unused
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _pool_init, (fn, tasks)) as pool:
        try:
            return list(pool.map(_pool_task, range(len(tasks))))
        except BrokenProcessPool:
            raise ArithmeticError("a worker process ended without its result") from None


# -- commands --------------------------------------------------------------


def cmd_norm(cfg: RunConfig, args) -> int:
    f = read_grid_function(args.input, None if args.infer_grid else cfg.grid())
    dict_ = cfg.dictionary(f.grid) if cfg.p == np.inf else None
    norm = tent_norm(f, ExponentPair(cfg.p, cfg.q), cfg.spec(), dict_,
                     continuous_intent=args.continuous)
    if not np.isfinite(norm):
        raise ArithmeticError("norm is not finite")
    _emit({"p": cfg.p, "q": cfg.q, "alpha": cfg.alpha, "beta": cfg.beta,
           "norm": norm, "grid_meta": _grid_meta(f.grid)}, cfg, "norm.json")
    return 0


def cmd_decompose(cfg: RunConfig, args) -> int:
    f = read_grid_function(args.input, None if args.infer_grid else cfg.grid())
    if cfg.q == np.inf and not args.sup:
        raise ValueError("the config's q is inf; decompose at q = inf takes --sup")
    d = decompose(f, np.inf if args.sup else cfg.q, cfg.spec(), eta=cfg.eta)
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
    if args.input:
        funcs = [read_grid_function(args.input, None if args.infer_grid else grid)]
    else:
        rng = np.random.default_rng(cfg.seed)
        funcs = [random_bump(grid, rng) for _ in range(5)]
    pq = ExponentPair(cfg.p if cfg.p != np.inf else 1.0, cfg.q)
    specs = [ConeSpec(a, b) for a in APERTURE_GRID for b in APERTURE_GRID]
    summary = []
    sweeps = [tent_norms(f, pq, specs) for f in funcs]
    for fi, norms in enumerate(sweeps):
        norms = np.asarray(norms)
        if not np.all(np.isfinite(norms)) or np.any(norms <= 0):
            raise ArithmeticError("non-finite or zero norm in the sweep")
        ratio = norms[:, None] / norms[None, :]
        path = _report_path(cfg, f"independence_f{fi}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha_beta"] + [f"{s.alpha}_{s.beta}" for s in specs])
            for s, row in zip(specs, ratio):
                writer.writerow([f"{s.alpha}_{s.beta}"] + [f"{v:.12g}" for v in row])
        summary.append({"function": fi,
                        "max_ratio": float(ratio.max()),
                        "min_ratio": float(ratio.min())})
    overall = max(s["max_ratio"] for s in summary)
    _emit({"p": pq.p, "q": pq.q, "per_function": summary,
           "overall_max_ratio": overall,
           "grid_meta": _grid_meta(funcs[0].grid)}, cfg, "independence.json")
    return 0


def cmd_carleson(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    spec = cfg.spec()
    mu = read_measure_csv(args.measure)
    rep = carleson_norm(mu, spec, cfg.delta, cfg.dictionary(grid))
    witness = rep["witness_ball"]
    out = {"norm": rep["norm"], "witness_ball": witness and asdict(witness),
           "n_balls": len(rep["values"]), "delta": cfg.delta}
    if args.function:
        f = read_grid_function(args.function,
                               None if args.infer_grid else grid)
        out["pairing"] = check_carleson_pairing(mu, f, spec, rep["norm"])
    _emit(out, cfg, "carleson.json")
    return 0


def _h1_checks(atoms, grid: HalfSpaceGrid, spec: ConeSpec):
    """check_h1_atom on each atom, and the untruncated operator on the
    boundary atom, whose support check must fail.  Returns the reports,
    whether the sentinel failed, and whether everything came out right.
    `atoms` may be a generator; map drops each atom before drawing the next."""
    reports = list(map(check_h1_atom, atoms))
    sentinel = check_h1_atom(boundary_atom(grid, spec), local=False)
    caught = not sentinel["support_ok"]
    return reports, caught, all(r["all_ok"] for r in reports) and caught


def cmd_embed(cfg: RunConfig, args) -> int:
    grid = cfg.grid()
    spec = cfg.spec()
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
        rep = compare_tents(B, ConeSpec(cfg.alpha, beta), ys[:, None], ts)
        failures += rep["n_off_axis"]
    return {"off_axis_disagreements": failures, "ok": failures == 0}


def _suite_comparison_lemma(cfg, grid, rng):
    # one draw at a time keeps the generator's stream (integers(3) is the
    # draw rng.choice makes of three values); one array pass checks
    yv, b, u = np.array([(rng.uniform(-5, 5), (0.5, 1.0, 2.0)[rng.integers(3)],
                          rng.uniform(-1, 1)) for _ in range(5000)]).T
    x = yv + u * b * cutoff_m(yv[:, None]) * 0.999999
    bad = int(np.sum(~comparison_lemma_check(x[:, None], yv[:, None], b)))
    return {"violations": bad, "ok": bad == 0}


def _suite_ball_bracket(cfg, grid, rng):
    c, beta, u = np.array([(rng.uniform(-6, 6), (0.5, 1.0, 2.0)[rng.integers(3)],
                            rng.uniform(0.05, 1.0)) for _ in range(200)]).T
    r = u * beta * cutoff_m(c[:, None])
    bad = int(np.sum(~gamma_ball_bounds_check(c[:, None], r, beta)))
    return {"violations": bad, "ok": bad == 0}


def _suite_tpp_identity(cfg, grid, rng):
    worst = 0.0
    for _ in range(3):
        f = random_bump(grid, rng)
        for p in (1.0, 2.0):
            norm = tent_norm(f, ExponentPair(p, p), cfg.spec())
            direct = halfspace_integral(
                GridFunction(grid, np.abs(f.values) ** p)) ** (1.0 / p)
            worst = max(worst, abs(norm - direct) / direct)
        del f                   # freed before the next draw
    return {"max_rel_err": worst, "ok": worst <= 1e-9}


def _suite_atom_bound(cfg, grid, rng):
    spec = cfg.spec()
    worst = 0.0
    for q in (1.0, 2.0, np.inf):
        for _ in range(2):
            a = random_atom(grid, spec, q, rng)
            worst = max(worst, validate_atom(a, spec)["area_l1"])
    return {"max_area_l1": worst, "ok": worst <= 1.05}


def _suite_duality_pq(cfg, grid, rng):
    all_ok = True
    for _ in range(6):
        # the pair lives only for its call, so no draw overlaps the last one
        rep = check_duality_pq(random_bump(grid, rng), random_bump(grid, rng), 2.0, 2.0,
                               cfg.spec())
        all_ok &= rep["identity_ok"] and rep["holder1_ok"] and rep["holder2_ok"]
    return {"ok": bool(all_ok)}


def _suite_decomposition(cfg, grid, rng):
    spec = cfg.spec()
    f = tent_indicator(grid, spec, 0.5, 0.4)
    d = decompose(f, cfg.q, spec, eta=cfg.eta)
    r = reconstruct(d)
    recon_err = float(np.max(np.abs(r.values - f.values) * (r.values != 0)))
    atoms_ok = all(validate_atom(a, spec)["all_ok"] for _, a in d.terms)
    ok = recon_err <= 1e-12 and d.residual_mass < 1e-10 and atoms_ok
    return {"recon_err": recon_err, "residual": d.residual_mass,
            "atoms_ok": atoms_ok, "ok": bool(ok)}


def _suite_embedding(cfg, grid, rng):
    spec = cfg.spec()
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
    suites = [(name, fn) for name, fn in _VERIFY_SUITES if name in selected]

    def run(suite):
        name, fn = suite
        # a fresh generator per suite: its result is the same wherever and
        # in whatever order the suite runs
        return fn(cfg, grid, np.random.default_rng([cfg.seed, *name.encode()]))

    results = dict(zip([name for name, _ in suites], _pool_map(run, suites, args.threads)))
    for name, rep in results.items():
        print(f"{name}: {'pass' if rep['ok'] else 'FAIL'}")
    all_ok = all(r["ok"] for r in results.values())
    _emit({"suites": results, "all_ok": all_ok, "seed": cfg.seed,
           "grid_meta": _grid_meta(grid)}, cfg, "verify.json")
    return 0 if all_ok else EXIT_NUMERIC


# -- entry point -----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """A malformed flag is a ConfigError, one line from main, not a usage block."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gausstent",
        description="Numerical toolkit for Gaussian tent spaces.")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--threads", type=int, default=_available_cpus(),
                        help="worker processes of verify (default: the CPU count)")
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
    try:
        args = build_parser().parse_args(argv)
        cfg = _apply_flags(load_config(args.config), args)
    except SystemExit:          # --help; a malformed flag is a ConfigError
        return 0
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    try:
        # the first overflow ends the command as a numeric error, not a
        # warning followed by an inf that fails later with another message
        with np.errstate(over="raise"):
            return _COMMANDS[args.command](cfg, args)
    except (ConfigError, OSError) as e:
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
