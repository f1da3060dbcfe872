"""Record the sha256 of every workload output into `golden.json`.

    python3 perfbench/record_golden.py

Run from the root of a checkout of the commit whose outputs are the
reference. A speed-up must reproduce these bytes, so a later change records
nothing here unless it deliberately changes the outputs and says so.
Digests are recorded for seeds 0..GOLDEN_SEEDS-1 at each workload's T and at the
set-up T of 1, and for seed 0 at the smoke T. They are valid only in the
environment `workloads.environment_key()` names.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
from workloads import GOLDEN_PATH, WORKLOADS, environment_key, write_inputs

GOLDEN_SEEDS = 20


def record(name: str, seed: int, steps: int, work: Path) -> dict[str, str]:
    result = run.run_pass(name, seed, steps, work)
    if result.commands_failed:
        sys.exit(f"error: {name} seed {seed} T {steps}: {result.commands_failed} command(s) "
                 "failed")
    if None in result.digests.values():
        sys.exit(f"error: {name} seed {seed} T {steps}: missing outputs {result.digests}")
    return result.digests


def main() -> int:
    run.require_checkout()
    run.WORK_ROOT.mkdir(exist_ok=True)
    digests: dict = {}
    for w in WORKLOADS.values():
        table = digests[w.name] = {}
        plan = [(w.steps, s) for s in range(GOLDEN_SEEDS)] + [(1, s) for s in range(GOLDEN_SEEDS)]
        plan.append((w.smoke_steps, 0))
        for steps, seed in plan:
            work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=run.WORK_ROOT))
            try:
                write_inputs(w.name, seed, work)
                table.setdefault(str(steps), {})[str(seed)] = record(w.name, seed, steps, work)
            finally:
                shutil.rmtree(work)
        print(f"# recorded {w.name}", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(
        {"environment": environment_key(), "git_sha": run.git_sha(), "digests": digests},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
