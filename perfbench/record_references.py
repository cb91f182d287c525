"""Record the reference reports of the default seed into references.json.

    python3 perfbench/record_references.py

Run from the repository root on a commit whose outputs are known good.
It runs one untraced pass of every workload at the standard sizes with
checks.DEFAULT_SEED and stores each report without its timestamp.  Every
op must pass its own flags, or nothing is written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads
from run import Runner


def main() -> int:
    refs = {}
    for name in workloads.WORKLOADS:
        runner = Runner(Path.cwd().resolve(), name, checks.DEFAULT_SEED, 0, False)
        runner.refs = {}
        runner.run()
        for r in runner.results:
            if not r.ok:
                print(f"{name} {r.label}: {'; '.join(r.problems)}", file=sys.stderr)
                return 1
            rep = {k: v for k, v in r.report.items() if k != "timestamp"}
            refs[checks.reference_key(name, r.label, checks.DEFAULT_SEED)] = rep
            print(f"recorded {name} {r.label}")
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
