"""Benchmark of the avagrad-lab command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synthfig --seed 0 --seconds 20 --trace 0

Workloads (see `workloads.py`): synthfig, grid_quadratic, mlp_holdout,
trial_record, or `all` to run the four in turn.

`--trace 0` measures end to end. Each workload's commands run as
`python3 -m avagrad_lab.cli ...` in fresh interpreters, one after another
(closed loop, one client), with BLAS pinned to one thread. Timed passes at
the workload's T alternate with set-up passes at `--steps 1` until
`--seconds` have passed, and a calibration pass (`reference.py`, fixed
work) runs before and after every pass. The virtual machine this was built
on changes speed by up to 1.8x in phases lasting minutes, which moves raw
medians of 20-second runs by 15-20%; the same work measured next to a fixed
reference moves by about 5%. So each pass's time is divided by the mean of
its two neighbouring reference passes and scaled by REFERENCE_S, the
reference's wall time on that machine: the timings read as seconds on it.

  wall_s       wall time of one pass, interpreter start to exit, summed over
               the commands; median over passes, reference-scaled
  steps_per_s  nominal optimizer steps of a pass (trials x T) / wall_s
  setup_s      the same for the commands at --steps 1
  peak_rss_mb  largest ru_maxrss of a pass's commands (pool workers included)

The printed table also gives the raw (unscaled) medians and the reference.
The run also prints error_ratio (failed commands and failed heatmap cells
over commands plus cells) and mismatch_ratio (output files whose sha256
differs from `golden.json`, or for an unrecorded seed from the run's first
pass, over output files). Both are 0 on correct code; the final JSON line
carries them as `failed`/`attempted` and `correct`.

`--trace 1` measures layer by layer in this process (see `layers.py`):
micro-benchmarks of the public functions of core, optim, problems and
runner for a third of `--seconds`, then three interleaved untraced and
traced in-process passes of all four workloads through `cli.main`, giving
each module's self time per workload and the tracing overhead. The spans
of the median traced pass are written to `perfbench/.work/spans.json`.
A traced run reports every per-layer metric of BENCHMARK.json, and those
name all four workloads (`<module>.self_share.<workload>`, the sweep
metrics of grid_quadratic and mlp_holdout, ...), so it traces all four
whatever `--workload` names; it takes about 40 s at `--seconds 25`.

`--smoke` runs tiny T and a single pass, for the benchmark's own tests.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child: OpenBLAS is built
# with MAX_THREADS=64, and unpinned pool workers would oversubscribe the cores.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS,
    OutputCheck,
    Workload,
    commands,
    digest_outputs,
    heatmap_status_counts,
    write_inputs,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
MIN_PASSES = 3
END_TO_END = ("wall_s", "steps_per_s", "setup_s", "peak_rss_mb")
REFERENCE_S = 0.25  # wall time of reference.py on the 2-core machine the benchmark was defined on


def require_checkout() -> None:
    if not (SRC / "avagrad_lab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'avagrad_lab'} not found; run from the root of an "
                 "avagrad-lab checkout")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("AVAGRAD_LAB_SEED", None)
    return env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def environment() -> dict:
    """What the numbers were measured on; printed with every run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "blas_pin": BLAS_PIN,
    }


@dataclass
class PassResult:
    wall_s: float
    rss_kb: int
    attempted: int
    failed: int
    commands_failed: int
    digests: dict[str, str | None]


def run_command(argv: tuple[str, ...], cwd: Path, stdout: Path) -> tuple[int, float, int]:
    """Run one CLI command; returns (exit code, wall seconds, ru_maxrss in KiB).

    wait4's rusage covers the command and the pool workers it reaped.
    """
    with open(stdout, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "avagrad_lab.cli", *argv],
            cwd=cwd, env=child_env(), stdout=out, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        print(f"# command failed ({proc.returncode}): {' '.join(argv)} {tail}", file=sys.stderr)
    return proc.returncode, wall, usage.ru_maxrss


def run_reference(work: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=work, env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def run_pass(name: str, seed: int, steps: int, work: Path) -> PassResult:
    """Run the workload's commands once from the input directory `work`,
    into a fresh output directory; returns timings, failures and digests."""
    out = Path(tempfile.mkdtemp(prefix="out", dir=work))
    wall, rss, attempted, failed = 0.0, 0, 0, 0
    try:
        for cmd in commands(name, seed, steps, out.name):
            stdout = out / cmd.stdout_name if cmd.stdout_name else work / "stdout.txt"
            code, t, kb = run_command(cmd.argv, work, stdout)
            wall += t
            rss = max(rss, kb)
            attempted += 1
            failed += code != 0
        cells, failed_cells = heatmap_status_counts(out)
        digests = digest_outputs(name, seed, out)
    finally:
        shutil.rmtree(out)
    return PassResult(wall, rss, attempted + cells, failed + failed_cells, failed, digests)


def measure_workload(w: Workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Alternate timed and set-up passes for `seconds`; returns a summary."""
    steps = w.smoke_steps if smoke else w.steps
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        write_inputs(w.name, seed, work)
        check = OutputCheck.load(w.name, seed)
        def checked(steps: int) -> PassResult:
            result = run_pass(w.name, seed, steps, work)
            check.compare(steps, result.digests)
            return result

        # untimed warm-up: fills the bytecode and page caches
        passes = [checked(1)]
        refs = [run_reference(work)]
        full, setup = [], []  # (pass, mean of the reference passes around it)

        def timed(steps: int) -> tuple[PassResult, float]:
            result = checked(steps)
            refs.append(run_reference(work))
            return result, (refs[-2] + refs[-1]) / 2

        deadline = time.perf_counter() + seconds
        while len(full) < (1 if smoke else MIN_PASSES) or time.perf_counter() < deadline:
            full.append(timed(steps))
            setup.append(timed(1))
            if smoke:
                break
        passes += [p for p, _ in full + setup]
    finally:
        shutil.rmtree(work)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = quartiles([REFERENCE_S * p.wall_s / ref for p, ref in full])
    series = {
        "wall_s": ("s", wall),
        "steps_per_s": ("1/s", tuple(w.lanes * steps / x for x in reversed(wall))),
        "setup_s": ("s", quartiles([REFERENCE_S * p.wall_s / ref for p, ref in setup])),
        "peak_rss_mb": ("MB", quartiles([p.rss_kb / 1024 for p, _ in full])),
        "error_ratio": ("ratio", (failed / attempted,) * 3),
        "mismatch_ratio": ("ratio", (check.mismatches / max(check.files, 1),) * 3),
        "raw_wall_s": ("s", quartiles([p.wall_s for p, _ in full])),
        "raw_setup_s": ("s", quartiles([p.wall_s for p, _ in setup])),
        "reference_s": ("s", quartiles(refs)),
    }
    return {
        "workload": w.name, "steps": steps, "passes": len(full),
        "series": series, "attempted": attempted, "failed": failed,
        "correct": check.mismatches == 0 and check.files > 0,
        "outputs": {str(k): v for k, v in check.status.items()},
    }


def print_summary(s: dict) -> None:
    print(f"# workload {s['workload']}: T={s['steps']}, {s['passes']} timed + "
          f"{s['passes']} set-up passes, outputs {s['outputs']}")
    print(f"# {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}  unit")
    for name, (unit, (q1, med, q3)) in s["series"].items():
        print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}  {unit}")


def end_to_end(names: list[str], seed: int, seconds: float, smoke: bool) -> dict:
    summaries = [measure_workload(WORKLOADS[n], seed, seconds, smoke) for n in names]
    metrics = {}
    for s in summaries:
        print_summary(s)
        for name, (unit, (_, med, _)) in s["series"].items():
            if name not in END_TO_END:
                continue  # the ratios are carried by failed/attempted and correct
            key = name if len(names) == 1 else f"{name}.{s['workload']}"
            metrics[key] = {"value": med, "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="workload to measure end to end; a traced run (--trace 1) "
                             "always covers all four, whatever this names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics of all four workloads instead of "
                             "end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="tiny T, one pass")
    args = parser.parse_args(argv)
    require_checkout()
    env = environment()
    print("# env " + json.dumps(env))
    if args.trace:
        import layers

        result = layers.measure(SRC, WORK_ROOT, args.seed, args.seconds, args.smoke)
    else:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = end_to_end(names, args.seed, args.seconds, args.smoke)
    print("# loadavg_end " + json.dumps(os.getloadavg()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
