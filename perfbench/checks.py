"""Output checks for every op, and the recorded references of the default seed.

Each report must satisfy its own flags.  For DEFAULT_SEED the report must
also match the reference recorded in references.json: counts, flags and
strings exactly, other floats to 1e-12 relative.  Error fields (measured
discrepancies such as `max_rel_err`) are left out of the match, because a
correct change of summation order moves them by rounding; their size is
bounded by the report's own flags instead.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 42
REL_TOL = 1e-12
ERROR_FIELDS = frozenset({"max_rel_err", "recon_err", "residual", "residual_mass",
                          "partition_defect", "timestamp"})
REFERENCES = Path(__file__).resolve().parent / "references.json"

REPORT_FILES = {"independence": "independence.json", "verify": "verify.json",
                "decompose": "decompose.json", "decompose_sup": "decompose.json",
                "norm": "norm.json", "carleson": "carleson.json",
                "embed": "embed.json"}


def _finite_pos(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


def flag_problems(command: str, rep: dict, out_dir: Path) -> list:
    """What is wrong with a report by its own flags (empty when fine)."""
    bad = []
    if command == "verify":
        if rep.get("all_ok") is not True:
            bad.append("verify all_ok is not true")
    elif command == "embed":
        if rep.get("all_ok") is not True:
            bad.append("embed all_ok is not true")
    elif command in ("decompose", "decompose_sup"):
        if rep.get("residual_mass") != 0:
            bad.append(f"residual_mass {rep.get('residual_mass')} != 0")
        if command == "decompose" and rep.get("audit", {}).get("nesting_ok") is not True:
            bad.append("nesting_ok is not true")
        if not _finite_pos(rep.get("ratio")) or not _finite_pos(rep.get("source_norm")):
            bad.append("ratio or source_norm not finite positive")
        manifest = out_dir / "decomposition" / "decomposition.json"
        n_files = len(list(manifest.parent.glob("atom_*.gtnt"))) if manifest.exists() else 0
        if n_files != rep.get("n_atoms"):
            bad.append(f"{n_files} atom files for n_atoms={rep.get('n_atoms')}")
    elif command == "norm":
        if not _finite_pos(rep.get("norm")):
            bad.append("norm not finite positive")
    elif command == "carleson":
        if not _finite_pos(rep.get("norm")):
            bad.append("carleson norm not finite positive")
        c = rep.get("pairing", {}).get("C_emp")
        if not (isinstance(c, (int, float)) and math.isfinite(c)):
            bad.append("pairing C_emp not finite")
    elif command == "independence":
        ratios = [rep.get("overall_max_ratio")]
        for row in rep.get("per_function", ()):
            ratios += [row.get("max_ratio"), row.get("min_ratio")]
        if len(ratios) < 2 or not all(_finite_pos(r) for r in ratios):
            bad.append("ratios not finite positive")
    return bad


def mismatches(ref, got, path="") -> list:
    """Differences between a reference report and a new one."""
    if isinstance(ref, dict) and isinstance(got, dict):
        out = []
        for k in sorted(set(ref) | set(got)):
            if k in ERROR_FIELDS:
                continue
            if k not in ref or k not in got:
                out.append(f"{path}/{k}: present on one side only")
            else:
                out += mismatches(ref[k], got[k], f"{path}/{k}")
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [m for i, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if ref == got or (math.isfinite(ref) and math.isfinite(got) and
                          abs(ref - got) <= REL_TOL * max(abs(ref), abs(got))):
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def reference_key(workload: str, label: str, seed: int) -> str:
    return f"{workload}/{label}/seed{seed}"


def check_op(command: str, out_dir: Path, ref) -> tuple:
    """(report or None, list of problems) for one finished op."""
    path = out_dir / REPORT_FILES[command]
    try:
        rep = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        return None, [f"no readable report: {e}"]
    bad = flag_problems(command, rep, out_dir)
    if ref is not None:
        bad += mismatches(ref, rep)
    return rep, bad
