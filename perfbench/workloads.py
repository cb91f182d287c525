"""The benchmark's workloads and metric tables.

Each workload is a list of ops; one op is one `python -m gausstent.cli`
invocation in a fresh process.  A pass runs every op of the workload
once, strictly one after another (a closed loop with one client).

Running this file writes BENCHMARK.json at the repository root from the
tables below, so the spec and the code cannot drift apart:

    python3 perfbench/workloads.py
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from inputs import Grid
from tracer import MODULES

# Sizes of the grids the workloads run on.  The self-test swaps in TINY.
STANDARD = {"small": Grid(512, 128), "large": Grid(1024, 256)}
TINY = {"small": Grid(64, 16), "large": Grid(128, 32)}

POOL_THREADS = 2     # `independence --threads`, for a 2-core machine
BLAS_THREADS = 1     # pool threads x BLAS threads <= nproc


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `label` names it in reports and references,
    `command` groups it for the op_s.* metrics, `argv` follows the
    program name (the runner adds `--out`)."""

    label: str
    command: str
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    moves: tuple = ()          # layers this workload should move
    idle: tuple = ()           # layers it should leave unchanged
    build: object = field(default=None, repr=False)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _program_seed(seed: int, stream: int) -> str:
    return str(int(_rng(seed, stream).integers(2 ** 31)))


def _aperture_sweep(seed, d: Path, sizes) -> list:
    # One benchmark-made bump rather than the five the program draws from
    # --seed: those vary in count and width, and moved op time by a third
    # between seeds.
    g = sizes["large"]
    inputs.write_config(d / "grid.ini", g)
    inputs.write_gtnt(d / "bump.gtnt", g, inputs.bump(g, _rng(seed, 0)))
    return [Op(f"independence.bump_{g.label}", "independence",
               ("--config", str(d / "grid.ini"), "--threads", str(POOL_THREADS),
                "independence", "--input", str(d / "bump.gtnt")))]


def _verify_battery(seed, d: Path, sizes) -> list:
    # The suites draw their functions inside the program from --seed, and
    # their cost moves by a fifth between seeds; three program seeds per
    # pass shrink that part of the run-to-run spread.
    g = sizes["large"]
    inputs.write_config(d / "grid.ini", g)
    return [Op(f"verify.{g.label}.{k}", "verify",
               ("--config", str(d / "grid.ini"), "--seed", _program_seed(seed, k),
                "verify"))
            for k in range(3)]


def _decompose_family(seed, d: Path, sizes) -> list:
    ops = []
    for k, g in enumerate((sizes["small"], sizes["large"])):
        cfg = d / f"q2_{g.label}.ini"
        inputs.write_config(cfg, g, q=2.0)
        tent = d / f"tent_{g.label}.gtnt"
        bump = d / f"bump_{g.label}.gtnt"
        inputs.write_gtnt(tent, g, inputs.tent_indicator(g, _rng(seed, 2 * k)))
        inputs.write_gtnt(bump, g, inputs.bump(g, _rng(seed, 2 * k + 1)))
        for name, path in (("tent", tent), ("bump", bump)):
            ops.append(Op(f"decompose.{name}_{g.label}", "decompose",
                          ("--config", str(cfg), "decompose", "--input", str(path))))
    g = sizes["large"]
    ops.append(Op(f"decompose_sup.bump_{g.label}", "decompose_sup",
                  ("--config", str(d / f"q2_{g.label}.ini"), "decompose", "--sup",
                   "--input", str(d / f"bump_{g.label}.gtnt"))))
    return ops


def _carleson_csv(seed, d: Path, sizes) -> list:
    g, big = sizes["small"], sizes["large"]
    cfg, cfg_big = d / "pinf.ini", d / "embed.ini"
    inputs.write_config(cfg, g, p="inf", q=2.0)
    inputs.write_config(cfg_big, big)
    f = d / "f.csv"
    mu = d / "mu.csv"
    inputs.write_grid_csv(f, g, inputs.bump(g, _rng(seed, 0)))
    inputs.write_measure_csv(mu, inputs.measure_rows(_rng(seed, 1)))
    return [
        Op(f"norm.pinf_{g.label}", "norm",
           ("--config", str(cfg), "norm", "--input", str(f))),
        Op(f"carleson.{g.label}", "carleson",
           ("--config", str(cfg), "carleson", "--measure", str(mu),
            "--function", str(f))),
        Op(f"embed.{big.label}", "embed",
           ("--config", str(cfg_big), "--seed", str(seed), "embed")),
    ]


WORKLOADS = {w.name: w for w in (
    Workload(
        "aperture_sweep",
        "independence at 1024x256 on a GTNT bump, 9 apertures, 2 pool threads: "
        "nine cold cone denominators and nine area_S calls, the window-sum layer "
        "under cache misses",
        moves=("functionals.grid_gamma_den", "functionals.area_S", "cli.import_s"),
        idle=("whitney", "atomic", "duality", "embedding", "geometry",
              "grid.write_grid_function"),
        build=_aperture_sweep),
    Workload(
        "verify_battery",
        "verify at 1024x256, all eight suites, three program seeds: one cold "
        "denominator then cache hits, area_S and the duality rearrangement; "
        "carries the tpp_identity accuracy figure",
        moves=("functionals.area_S", "duality.check_duality_pq",
               "atomic.validate_atom", "atomic.decompose", "whitney.density_points",
               "whitney.whitney_cubes", "embedding.pi_phi", "geometry", "cli.import_s"),
        idle=("grid.read_grid_function", "grid.write_grid_function",
              "whitney.whitney_balls", "functionals.carleson_C",
              "duality.carleson_norm"),
        build=_verify_battery),
    Workload(
        "decompose_family",
        "decompose (q=2) of tent indicators and bumps at 512x128 and 1024x256 "
        "plus decompose --sup at 1024x256 from GTNT files: Whitney covers, atom "
        "loops, grid writes, peak memory",
        moves=("whitney.density_points", "whitney.whitney_cubes",
               "whitney.whitney_balls", "atomic.decompose", "atomic.decompose_sup",
               "atomic.export_decomposition", "grid.write_grid_function",
               "geometry.gamma_ball", "cli.import_s"),
        idle=("functionals.carleson_C", "duality", "embedding"),
        build=_decompose_family),
    Workload(
        "carleson_csv",
        "CSV inputs at 512x128: norm at p=inf (carleson_C), carleson with a "
        "seeded measure, embed at 1024x256; the CSV read path, dictionary loops "
        "and pi_phi that no other workload runs",
        moves=("grid.read_grid_function", "functionals.carleson_C",
               "duality.carleson_norm", "geometry.cutoff_m", "geometry.gamma_ball",
               "functionals.area_S_sup", "embedding.pi_phi", "cli.import_s"),
        idle=("whitney", "atomic", "grid.write_grid_function",
              "functionals.grid_gamma_den", "functionals.area_S",
              "duality.check_duality_pq"),
        build=_carleson_csv),
)}

# Commands that get an op_s.<command> metric in the traced run.
COMMANDS = ("independence", "verify", "decompose", "decompose_sup",
            "norm", "carleson", "embed")


# (name, unit, better, bound) -- measured with tracing off.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# Per-function metrics of the traced run: function -> extra counters.
# `.s` is inclusive time and `.calls` the number of calls; the extra
# counters come from return values, arguments and files.
TRACED_FUNCTIONS = {
    "functionals.grid_gamma_den": ("s", "calls", "repeat_ratio"),
    "functionals.area_S": ("s", "calls"),
    "functionals.area_S_sup": ("s",),
    "functionals.carleson_C": ("s",),
    "whitney.density_points": ("s", "calls"),
    "whitney.whitney_cubes": ("s", "calls", "cubes"),
    "whitney.whitney_balls": ("s", "balls"),
    "atomic.decompose": ("s",),
    "atomic.decompose_sup": ("s",),
    "atomic.export_decomposition": ("s",),
    "atomic.validate_atom": ("s", "calls"),
    "grid.write_grid_function": ("s", "calls", "bytes"),
    "grid.read_grid_function": ("s", "bytes"),
    "duality.carleson_norm": ("s", "calls"),
    "duality.check_duality_pq": ("s",),
    "geometry.cutoff_m": ("calls",),
    "geometry.gamma_ball": ("s", "calls"),
    "embedding.pi_phi": ("s", "calls"),
}

_UNITS = {"s": "s", "calls": "count", "repeat_ratio": "ratio", "cubes": "count",
          "balls": "count", "bytes": "B"}
_BETTER = {"repeat_ratio": "higher"}


def per_layer_metrics() -> tuple:
    """(name, unit, better) for every metric the traced run reports."""
    out = [("cli.import_s", "s", "lower")]
    out += [(f"{m}.self_s", "s", "lower") for m in MODULES]
    for fn, keys in TRACED_FUNCTIONS.items():
        out += [(f"{fn}.{k}", _UNITS[k], _BETTER.get(k, "lower")) for k in keys]
    out += [("atomic.atoms", "count", "lower"),
            ("trace.spans", "count", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("tpp_rel_err", "ratio", "lower")]
    out += [(f"op_s.{c}", "s", "lower") for c in COMMANDS]
    return tuple(out)


RUN_SECONDS = 30


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(spec(), indent=2) + "\n")
    print(f"wrote {path}")
