"""Run one benchmark workload of the gausstent CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is the package in
`src/`.  Every op is one `python -m gausstent.cli` process, started only
after the previous one has ended (a closed loop with one client), so each
op pays interpreter start-up and cold caches as a CLI user does.

Set-up generates and writes the workload's seeded inputs and imports the
program once; it runs SETUP_REPS times and reports the median.  Then whole
passes over the workload's ops run until the next pass would end after
`--seconds`; at least one pass always runs.

--trace 0  reports the end-to-end metrics of workloads.END_TO_END.
--trace 1  alternates untraced and traced passes (tracer.py wraps every
           layer call) and reports workloads.per_layer_metrics(); its
           trace.overhead_s is the traced minus the untraced pass time.

Every report is checked (checks.py).  The last line of standard output
is one JSON object: correct, attempted, failed (ops that exited nonzero or
failed the check) and metrics.  Without `src/gausstent` the script exits 2
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import tracer
import workloads

SETUP_REPS = 3
HARD_LIMIT_S = 165.0        # ops still running this long into a run are killed
WORK_DIR = ".perfbench_work"


class SetupError(Exception):
    pass


@dataclass
class OpResult:
    label: str
    command: str
    seconds: float
    rss_kb: int
    ok: bool
    traced: bool
    problems: list = field(default_factory=list)
    report: dict | None = None
    trace: dict | None = None      # summarize() output plus import_s


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(workloads.BLAS_THREADS)
    return env


def machine_block() -> dict:
    """Where the numbers come from; printed with every run."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.exists() else ():
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": workloads.BLAS_THREADS,
        "pool_threads": workloads.POOL_THREADS,
    }


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, sizes=None, extra_ops=()):
        self.root = root
        self.workload = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes or workloads.STANDARD
        self.extra_ops = tuple(extra_ops)
        self.env = child_env(root)
        self.work = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.started = time.monotonic()
        self.refs = checks.load_references() if seed == checks.DEFAULT_SEED else {}
        self.results: list[OpResult] = []

    # -- set-up -------------------------------------------------------------

    def check_program(self) -> None:
        if not (self.root / "src" / "gausstent" / "cli.py").is_file():
            raise SetupError(f"no src/gausstent/cli.py under {self.root}")

    def setup(self) -> tuple:
        """Generate the inputs SETUP_REPS times; return (ops, median seconds)."""
        self.check_program()
        inputs_dir = self.work / "inputs"
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            shutil.rmtree(inputs_dir, ignore_errors=True)
            inputs_dir.mkdir(parents=True)
            ops = self.workload.build(self.seed, inputs_dir, self.sizes)
            try:
                probe = subprocess.run(
                    [sys.executable, "-c", "import gausstent.cli; "
                     "print(gausstent.cli.__file__)"],
                    cwd=self.root, env=self.env, capture_output=True, text=True,
                    timeout=60)
            except subprocess.TimeoutExpired as e:
                raise SetupError("importing the program timed out") from e
            times.append(time.perf_counter() - t0)
            loaded = Path(probe.stdout.strip() or ".").resolve()
            if probe.returncode != 0 or self.root / "src" not in loaded.parents:
                raise SetupError("the program in src/ does not import: "
                                 + probe.stderr.strip()[-300:])
        return ops + list(self.extra_ops), statistics.median(times)

    # -- ops ------------------------------------------------------------------

    def run_op(self, op, traced: bool, index: int) -> OpResult:
        out_dir = self.work / f"op{index:04d}"
        out_dir.mkdir(parents=True)
        args = ["--out", str(out_dir), *op.argv]
        spans_path = out_dir / "spans.json"
        if traced:
            cmd = [sys.executable, str(Path(__file__).with_name("tracer.py")),
                   str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "gausstent.cli", *args]
        limit = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        with open(out_dir / "stdout.txt", "wb") as so, \
                open(out_dir / "stderr.txt", "wb") as se:
            t_spawn = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=so, stderr=se)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        res = OpResult(op.label, op.command, seconds, usage.ru_maxrss, False, traced)
        if proc.returncode != 0:
            err = (out_dir / "stderr.txt").read_text(errors="replace").strip()
            res.problems = [f"exit {proc.returncode}: {err[-300:]}"]
        else:
            ref = self.refs.get(checks.reference_key(self.workload.name, op.label, self.seed))
            res.report, res.problems = checks.check_op(op.command, out_dir, ref)
        if traced and spans_path.exists():
            data = json.loads(spans_path.read_text())
            res.trace = tracer.summarize(data["spans"], data["counters"])
            res.trace["cli.import_s"] = data["imported"] - t_spawn
        res.ok = not res.problems
        shutil.rmtree(out_dir, ignore_errors=True)
        return res

    def run_pass(self, ops, traced: bool) -> tuple:
        """Run every op once; return (seconds the ops took, their results)."""
        results = []
        for op in ops:
            results.append(self.run_op(op, traced, len(self.results) + len(results)))
            if time.monotonic() - self.started > HARD_LIMIT_S:
                break
        self.results += results
        return sum(r.seconds for r in results), results

    # -- the whole run -------------------------------------------------------

    def run(self) -> dict:
        try:
            ops, setup_s = self.setup()
            passes = {False: [], True: []}       # traced -> [(seconds, results)]
            deadline = self.started + self.seconds
            traced = False
            while True:
                passes[traced].append(self.run_pass(ops, traced))
                if time.monotonic() - self.started > HARD_LIMIT_S:
                    break
                if self.trace:
                    if not passes[True]:        # one traced pass always runs
                        traced = True
                        continue
                    traced = not traced
                predicted = statistics.median(
                    p[0] for p in passes[traced] or passes[not traced])
                if time.monotonic() + predicted > deadline:
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                (self.root / WORK_DIR).rmdir()
            except OSError:
                pass
        return self.metrics(setup_s, passes)

    def metrics(self, setup_s: float, passes: dict) -> dict:
        failed = sum(not r.ok for r in self.results)
        if self.trace:
            values = self.layer_metrics(passes)
            units = {n: u for n, u, _ in workloads.per_layer_metrics()}
        else:
            values = {
                "wall_s": statistics.median(p[0] for p in passes[False]),
                "peak_rss_mb": max(r.rss_kb for r in self.results) * 1024 / 1e6,
                "setup_s": setup_s,
            }
            units = {n: u for n, u, _, _ in workloads.END_TO_END}
        return {
            "correct": failed == 0,
            "attempted": len(self.results),
            "failed": failed,
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        }

    def layer_metrics(self, passes: dict) -> dict:
        units = {n: u for n, u, _ in workloads.per_layer_metrics()}
        per_pass = []
        for _, results in passes[True]:
            agg = {}
            for r in results:
                for k, v in (r.trace or {}).items():
                    if k != "cli.import_s":
                        agg[k] = agg.get(k, 0) + v
            calls = agg.get("functionals.grid_gamma_den.calls", 0)
            agg["functionals.grid_gamma_den.repeat_ratio"] = (
                agg.get("functionals.grid_gamma_den.repeats", 0) / calls if calls else 0.0)
            per_pass.append(agg)
        out = {}
        for n, unit in units.items():
            vals = [p.get(n, 0) for p in per_pass or [{}]]
            out[n] = (statistics.median_low(vals) if unit in ("count", "B")
                      else float(statistics.median(vals)))
        imports = [r.trace["cli.import_s"] for r in self.results if r.trace]
        out["cli.import_s"] = statistics.median(imports) if imports else 0.0
        if passes[True]:
            out["trace.overhead_s"] = (statistics.median(p[0] for p in passes[True])
                                       - statistics.median(p[0] for p in passes[False]))
        untraced = [r for _, rs in passes[False] for r in rs]
        for c in workloads.COMMANDS:
            secs = [r.seconds for r in untraced if r.command == c]
            out[f"op_s.{c}"] = statistics.median(secs) if secs else 0.0
        errs = tpp_errors(self.results)
        out["tpp_rel_err"] = statistics.median(errs) if errs else 0.0
        return out


def tpp_errors(results) -> list:
    """The tpp_identity suite's max_rel_err of every checked verify report."""
    return [r.report["suites"]["tpp_identity"]["max_rel_err"]
            for r in results if r.command == "verify" and r.report]


def describe(runner: Runner) -> None:
    """Human-readable lines printed before the result line."""
    w = runner.workload
    print(f"workload {w.name} seed {runner.seed} seconds {runner.seconds} "
          f"trace {int(runner.trace)}: {w.why}")
    print(f"  should move: {', '.join(w.moves)}")
    print(f"  should not move: {', '.join(w.idle)}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    print("load: closed loop, one client, ops strictly in sequence")


def report_ops(runner: Runner) -> None:
    for r in runner.results:
        status = "ok" if r.ok else "FAILED " + "; ".join(r.problems)[:400]
        print(f"  op {r.label:<28} {'traced' if r.traced else 'plain ':<6} "
              f"{r.seconds:8.3f} s {r.rss_kb / 1024:8.1f} MiB  {status}")
    errs = tpp_errors(runner.results)
    if errs:
        print(f"  tpp_identity max_rel_err: {max(errs)!r}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    runner = Runner(Path.cwd().resolve(), args.workload, args.seed, args.seconds,
                    bool(args.trace))
    try:
        runner.check_program()
        describe(runner)
        result = runner.run()
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report_ops(runner)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
