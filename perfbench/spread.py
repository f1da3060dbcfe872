"""Run-to-run spread of the end-to-end metrics, and a baseline record.

    python3 perfbench/spread.py --workloads synthfig,trial_record --seeds 1-10 \
        [--seconds 10] [--out perfbench/baseline.json]

Runs `run.py` once per (workload, seed), then prints for each metric the
median and the distance between the first and third quartile of its values
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound in BENCHMARK.json. A spread above a third of the bound means
the benchmark is too noisy to resolve that bound. With `--out`, writes the
runs, the summary and the environment record as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, env = {}, {}, None
    ok = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env = env or json.loads(lines[0].removeprefix("# env "))
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs[workload].append({"seed": seed, **result})
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = "" if spread <= bound / 3 else "  (above bound/3)"
            print(f"{workload:<16}{name:<14}median {med:<14.6g}spread {spread:7.3f}"
                  f"  bound {bound}{flag}")
    env["loadavg_end"] = os.getloadavg()
    if args.out:
        args.out.write_text(json.dumps(
            {"environment": env, "seconds": args.seconds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
