"""Traced entry point: run one CLI op with spans around every layer call.

    python3 perfbench/tracer.py SPANS_JSON -- <gausstent arguments>

Run from the repository root with `src` on PYTHONPATH.  It wraps every
function in the `__all__` of each gausstent module, plus `cli.cmd_*`, at
every place the function object is bound: module globals, the
`from .x import y` copies in importing modules, and module-level dicts
such as the CLI's command table.  It then calls `gausstent.cli.main` and,
when main returns, writes the spans and counters to SPANS_JSON.  No file
under `src/` is edited.

A span is (id, name, start, end, parent).  The parent is the innermost
open span of the calling thread; a call made from a pool thread with no
open span of its own takes the main thread's innermost span, the call that
started the pool.  `summarize` turns the spans into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time

MODULES = ("geometry", "grid", "functionals", "whitney", "atomic",
           "duality", "embedding", "cli")


class Tracer:
    def __init__(self):
        self.spans = []                      # (id, name, start, end, parent)
        self.counters = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()
        self._seen_den = set()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def count(self, key: str, n=1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def call(self, name, fn, probe, args, kwargs):
        st = self._stack()
        parent = st[-1] if st else (self._main_stack[-1] if self._main_stack else 0)
        sid = next(self._ids)
        st.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            st.pop()
            self.spans.append((sid, name, start, end, parent))
        if probe is not None:
            probe(self, args, result)
        return result

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, probe, args, kwargs)
        return traced


# -- counters taken from arguments, return values and files ------------------


def _grid_den_probe(tr, args, result):
    grid, spec = args[0], args[1]
    key = (grid.spatial_box, grid.nx, grid.t_min, grid.t_max, grid.nt,
           spec.alpha, spec.beta)
    with tr._lock:
        repeat = key in tr._seen_den
        tr._seen_den.add(key)
    tr.count("functionals.grid_gamma_den.repeats", int(repeat))


def _file_bytes_probe(key, arg_index):
    def probe(tr, args, result):
        tr.count(key, os.path.getsize(args[arg_index]))
    return probe


PROBES = {
    "functionals.grid_gamma_den": _grid_den_probe,
    "whitney.whitney_cubes": lambda tr, a, r: tr.count("whitney.whitney_cubes.cubes", len(r.cubes)),
    "whitney.whitney_balls": lambda tr, a, r: tr.count("whitney.whitney_balls.balls", len(r.balls)),
    "atomic.decompose": lambda tr, a, r: tr.count("atomic.atoms", len(r.terms)),
    "atomic.decompose_sup": lambda tr, a, r: tr.count("atomic.atoms", len(r.terms)),
    "grid.write_grid_function": _file_bytes_probe("grid.write_grid_function.bytes", 1),
    "grid.read_grid_function": _file_bytes_probe("grid.read_grid_function.bytes", 0),
}


def install(tracer: Tracer) -> int:
    """Wrap the layer functions everywhere they are bound; return how many."""
    originals = {}
    for mod_name in MODULES:
        mod = sys.modules[f"gausstent.{mod_name}"]
        names = getattr(mod, "__all__", ())
        if mod_name == "cli":
            names = [n for n in vars(mod) if n.startswith("cmd_")]
        for n in names:
            obj = getattr(mod, n)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[obj] = tracer.wrap(f"{mod_name}.{n}", obj)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "gausstent" and not mod_name.startswith("gausstent."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in originals:
                setattr(mod, attr, originals[val])
            elif isinstance(val, dict):
                for k, v in val.items():
                    if inspect.isfunction(v) and v in originals:
                        val[k] = originals[v]
    return len(originals)


# -- span aggregation (used by the runner) -----------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans, counters) -> dict:
    """Self time per module, inclusive time and calls per function, counters.

    A module's self time is the sum over its spans of the span's duration
    minus the part of it that the span's children cover.  A function's
    inclusive time counts only spans not nested in a span of the same
    name.
    """
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    out = {f"{m}.self_s": 0.0 for m in MODULES}
    for sid, name, start, end, parent in spans:
        own = (end - start) - _covered(children.get(sid, ()), start, end)
        key = name.split(".")[0] + ".self_s"
        out[key] = out.get(key, 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        p, nested = parent, False
        while p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][4]
        if not nested:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
    out.update(counters)
    out["trace.spans"] = len(spans)
    return out


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <gausstent arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    import gausstent.cli
    imported = time.monotonic()
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = tracer.call("cli.main", gausstent.cli.main, None, (cli_args,), {})
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"imported": imported, "spans": tracer.spans,
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
