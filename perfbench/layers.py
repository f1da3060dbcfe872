"""Per-layer metrics: micro-benchmarks of each module's public functions at
the workloads' shapes, and traced in-process passes of the four workloads.

The layers are the package modules core, optim, problems, runner, sweep and
cli. Micro-benchmarks report the median per-call time over blocks of calls
(with quartiles and the sample count in the printed table). The traced pass
runs every workload's commands through `cli.main` with `tracer` wrappers
installed, after an untraced in-process pass of the same commands; the
difference of their wall times is the tracing overhead. For each workload
the six modules' self times plus an unattributed remainder add up to the
traced wall time. In the pooled sweep the main process only waits inside
run_sweep; that wait is split over the modules in proportion to the self
times the workers recorded.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import MODULES, StampedStream, Tracer, install, uninstall
from workloads import (
    MLP_WORKERS,
    WORKLOADS,
    OutputCheck,
    commands,
    digest_outputs,
    heatmap_status_counts,
    write_inputs,
)

METHODS = ("sgd", "momentum_sgd", "adam", "amsgrad", "adamw",
           "delayed_adam", "avagrad", "avagradw")
DIMS = (1, 10, 99, 1000)
UNIT_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}
MIN_SAMPLES = 5
TRACE_ROUNDS = 3


class Table:
    """Metric name -> (unit, samples); one sample for derived values."""

    def __init__(self):
        self.rows: dict[str, tuple[str, list[float]]] = {}

    def add(self, name: str, unit: str, samples) -> None:
        self.rows[name] = (unit, list(samples))

    def median(self, name: str) -> float:
        return statistics.median(self.rows[name][1])

    def print(self) -> None:
        print(f"# {'layer metric':<44}{'median':>12}{'q1':>12}{'q3':>12}{'n':>6}  unit")
        for name, (unit, xs) in self.rows.items():
            q1, q3 = (statistics.quantiles(xs, n=4)[::2] if len(xs) > 1 else (xs[0], xs[0]))
            print(f"  {name:<44}{statistics.median(xs):>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{len(xs):>6}  {unit}")

    def metrics(self) -> dict:
        return {name: {"value": statistics.median(xs), "unit": unit}
                for name, (unit, xs) in self.rows.items()}


class Micro:
    """Times blocks of calls; each block lasts at least `block_s`."""

    def __init__(self, table: Table, budget_s: float, block_s: float, min_samples: int):
        self.table = table
        self.budget_s = budget_s
        self.block_s = block_s
        self.min_samples = min_samples

    def time(self, name: str, unit: str, fn, units_per_call: int = 1) -> None:
        clock = time.perf_counter
        fn()
        calls = 1
        while True:
            t0 = clock()
            for _ in range(calls):
                fn()
            if clock() - t0 >= self.block_s or calls >= 1 << 20:
                break
            calls *= 2
        samples = []
        end = clock() + self.budget_s
        while len(samples) < self.min_samples or clock() < end:
            t0 = clock()
            for _ in range(calls):
                fn()
            samples.append((clock() - t0) / (calls * units_per_call) * UNIT_SCALE[unit])
        self.table.add(name, unit, samples)


def micro_benchmarks(table: Table, seed: int, budget_s: float, smoke: bool, work: Path):
    from avagrad_lab.core import RngStream, Schedule, mix_seed, schedule_eval
    from avagrad_lab.optim import HyperParams, Method, init_state, step
    from avagrad_lab.problems import gaussian_blobs, mlp_make, quadratic_make, synth_make
    from avagrad_lab.runner import (TrialConfig, bias_gap, eval_bound, export_trajectory,
                                    run_synth_replicas, run_trial)

    n_metrics = 5 + len(METHODS) * len(DIMS) + 8 + 7
    micro = Micro(table, budget_s / n_metrics, 5e-4 if smoke else 2e-3,
                  3 if smoke else MIN_SAMPLES)
    rng = RngStream(seed)

    # core
    micro.time("core.rng_random_ns_per_draw", "ns", lambda: rng.random(65536), 65536)
    micro.time("core.rng_normal_us", "us", lambda: rng.normal(10))
    micro.time("core.rng_choice_us", "us", lambda: rng.choice(240, 32, replace=False))
    micro.time("core.mix_seed_us", "us", lambda: mix_seed(seed, 1, 2, 3, 4))
    constant = Schedule.constant(0.9)
    micro.time("core.schedule_eval_ns", "ns", lambda: schedule_eval(constant, 17))

    # optim: one step per call, state carried over; alpha small so w stays finite
    hp = HyperParams(alpha=Schedule.constant(1e-3), epsilon=1e-8)
    for method in METHODS:
        for d in DIMS:
            gen = np.random.default_rng(d)
            g = gen.standard_normal(d)
            carry = [gen.standard_normal(d), init_state(Method(method), d)]

            def one_step(carry=carry, g=g):
                carry[0], carry[1], _ = step(carry[1], hp, carry[0], g)

            micro.time(f"optim.step_us.{method}.d{d}", "us", one_step)

    # problems, with tokens drawn as the workloads draw them
    synth = synth_make(999.0, 1.0)
    quad = quadratic_make(np.linspace(1.0, 4.0, 10), 0.1)
    mlp = mlp_make(2, 16, 3, gaussian_blobs(80, 3, 2, 1.5, RngStream(seed)), batch_size=32)
    holdout = gaussian_blobs(40, 3, 2, 1.5, RngStream(seed + 1))
    w_at = {
        "synth": np.array([0.5]),
        "quadratic": np.ones(10),
        "mlp": 0.1 * RngStream(seed).normal(mlp.dim),
    }
    for label, problem in (("synth", synth), ("quadratic", quad), ("mlp", mlp)):
        micro.time(f"problems.sample_us.{label}", "us", lambda p=problem: p.sample(rng))
        next_token = itertools.cycle([problem.sample(rng) for _ in range(1024)]).__next__
        micro.time(f"problems.grad_us.{label}", "us",
                   lambda p=problem, w=w_at[label]: p.grad(w, next_token()))
    micro.time("problems.full_grad_us.synth", "us", lambda: synth.full_grad(w_at["synth"]))
    micro.time("problems.holdout_ce_ms.mlp", "ms",
               lambda: mlp.dataset_loss(w_at["mlp"], holdout))

    # runner: run_trial per step at the three workload shapes
    def sweep_hp(alpha, eps):
        return HyperParams(alpha=Schedule.constant(alpha), epsilon=eps,
                           beta1=Schedule.constant(0.9), beta2=Schedule.constant(0.999))

    synth_hp = HyperParams(alpha=Schedule.constant(1e-5), epsilon=1e-8,
                           beta1=Schedule.constant(0.0), beta2=Schedule.constant(0.99))
    trials = {
        "quadratic_norecord": (
            TrialConfig(method=Method.DELAYED_ADAM, hp=sweep_hp(1e-2, 1e-4), problem=quad,
                        T=200, w1=w_at["quadratic"], seed=seed, record_every=200,
                        grad_metric="none"),
            ("problems.sample_us.quadratic", "problems.grad_us.quadratic",
             "optim.step_us.delayed_adam.d10")),
        "mlp_norecord": (
            TrialConfig(method=Method.ADAM, hp=sweep_hp(1e-2, 1e-2), problem=mlp, T=50,
                        w1=w_at["mlp"], seed=seed, record_every=50, grad_metric="none"),
            ("problems.sample_us.mlp", "problems.grad_us.mlp", "optim.step_us.adam.d99")),
        "synth_record": (
            TrialConfig(method=Method.DELAYED_ADAM, hp=synth_hp, problem=synth, T=500,
                        w1=w_at["synth"], seed=seed, record_every=1, grad_metric="full"),
            ("problems.sample_us.synth", "problems.grad_us.synth",
             "problems.full_grad_us.synth", "optim.step_us.delayed_adam.d1")),
    }
    for label, (cfg, parts) in trials.items():
        micro.time(f"runner.trial_us_per_step.{label}", "us", lambda c=cfg: run_trial(c), cfg.T)
    # derived: what run_trial spends per step outside the calls it makes
    for label, (cfg, parts) in trials.items():
        table.add(f"runner.trial_overhead_us_per_step.{label}", "us",
                  [table.median(f"runner.trial_us_per_step.{label}")
                   - sum(table.median(p) for p in parts)])

    for label, n, T in (("n10", 10, 500), ("n1000", 1000, 100)):
        def replicas(n=n, T=T):
            for method in (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM):
                run_synth_replicas(synth, method, synth_hp, w1=0.5, T=T, base_seed=seed,
                                   n_replicas=n, record_every=max(1, T // 1000),
                                   capture_trace=False)
        micro.time(f"runner.replicas_ns_per_lane_step.{label}", "ns", replicas, 3 * n * T)

    record = run_trial(trials["synth_record"][0])
    path = work / "export.csv"
    micro.time("runner.export_us_per_row", "us",
               lambda: export_trajectory(record, path), len(record.rows))
    bound_cfg = TrialConfig(method=Method.DELAYED_ADAM, hp=synth_hp, problem=synth, T=2000,
                            w1=w_at["synth"], seed=seed, record_every=20, capture_trace=True)
    bound_record = run_trial(bound_cfg)
    constants = synth.constants(w_at["synth"])
    micro.time("runner.eval_bound_ms", "ms",
               lambda: eval_bound(bound_record, constants, "unconditional"))
    state = init_state(Method.DELAYED_ADAM, 1)
    state.v = np.array([25.0])
    state.t = 10
    micro.time("runner.bias_gap_us", "us",
               lambda: bias_gap(np.array([0.3]), state, synth_hp, synth, "adam"))


def import_seconds(src: Path, repeats: int) -> list[float]:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import avagrad_lab.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


@dataclass
class Tally:
    """Attempts and failures of the in-process passes, and their output check."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True


def inprocess_pass(main, name: str, seed: int, steps: int, work: Path,
                   check: OutputCheck, tally: Tally) -> dict:
    """Run the workload's commands through `main` in this process."""
    out = Path(tempfile.mkdtemp(prefix="out", dir=work))
    wall, stamps, starts = 0.0, [], []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for cmd in commands(name, seed, steps, out.name):
            stdout, stderr = io.StringIO(), StampedStream()
            t0 = time.perf_counter()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(list(cmd.argv))
            wall += time.perf_counter() - t0
            starts.append(t0)
            stamps.append(stderr.stamps)
            tally.attempted += 1
            if code != 0:
                tally.failed += 1
                print(f"# command failed ({code}): {' '.join(cmd.argv)} "
                      f"{stderr.getvalue().strip().splitlines()[-1:]}", file=sys.stderr)
            if cmd.stdout_name:
                (out / cmd.stdout_name).write_text(stdout.getvalue())
        cells, failed_cells = heatmap_status_counts(out)
        rows = sum(len(p.read_text().splitlines()) - 1 for p in out.glob("trajectory_seed*.csv"))
        tally.attempted += cells
        tally.failed += failed_cells
        if check.compare(steps, digest_outputs(name, seed, out)):
            tally.correct = False
    finally:
        os.chdir(cwd)
        shutil.rmtree(out)
    return {"wall": wall, "starts": starts, "stamps": stamps, "rows": rows,
            "failed_cells": failed_cells}


def self_times(tracer: Tracer) -> dict[str, float]:
    """Main-process self time per module, with a pooled sweep's wait split
    over the modules in proportion to the workers' self times."""
    own = {m: tracer.self_s.get(m, 0.0) for m in MODULES}
    workers = {m: 0.0 for m in MODULES}
    for record in tracer.worker_records():
        for m, v in record["self_s"].items():
            workers[m] += v
    busy = sum(workers.values())
    if busy > 0.0:
        wait = sum(s["self"] for s in tracer.spans if s["name"] == "sweep.run_sweep")
        own["sweep"] -= wait
        for m in MODULES:
            own[m] += wait * workers[m] / busy
    return own


def traced_pass(tracer: Tracer, main, lab, name: str, seed: int, steps: int, work: Path,
                check: OutputCheck, tally: Tally) -> dict:
    """An in-process pass with the wrappers installed; adds the module self
    times, the spans and the pool workers' records to the pass result."""
    tracer.span_dir = Path(tempfile.mkdtemp(prefix="spans", dir=work))
    tracer.reset()
    saved = install(tracer, lab)
    tracer.enabled = True
    try:
        result = inprocess_pass(main, name, seed, steps, work, check, tally)
    finally:
        tracer.enabled = False
        uninstall(saved)
    result.update(own=self_times(tracer), spans=tracer.spans, workers=tracer.worker_records())
    return result


def median_pass(passes: list[dict]) -> dict:
    return sorted(passes, key=lambda p: p["wall"])[len(passes) // 2]


def traced_workloads(lab, table: Table, seed: int, rounds: int, smoke: bool, work_root: Path,
                     tally: Tally) -> dict:
    """`rounds` interleaved untraced and traced passes of each workload; the
    pass with the median wall time of each kind gives the metrics. Returns
    the spans of those traced passes by workload."""
    tracer = Tracer()
    traced_main = tracer.wrap(lab.cli.main, "cli.main", "cli", True)
    cli_self, failed_cells, dump = 0.0, 0, {}
    for w in WORKLOADS.values():
        steps = w.smoke_steps if smoke else w.steps
        work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
        plains, traces = [], []
        try:
            write_inputs(w.name, seed, work)
            check = OutputCheck.load(w.name, seed)
            for _ in range(rounds):
                plains.append(inprocess_pass(lab.cli.main, w.name, seed, steps, work, check,
                                             tally))
                traces.append(traced_pass(tracer, traced_main, lab, w.name, seed, steps, work,
                                          check, tally))
        finally:
            shutil.rmtree(work)
        plain, traced = median_pass(plains), median_pass(traces)
        own, spans, workers = traced["own"], traced["spans"], traced["workers"]
        failed_cells += sum(p["failed_cells"] for p in plains + traces)
        dump[w.name] = {"wall_s": traced["wall"], "self_s": own, "spans": spans,
                        "worker_records": workers}

        for m in MODULES:
            table.add(f"{m}.self_share.{w.name}", "fraction", [own[m] / traced["wall"]])
        table.add(f"trace.wall_s.{w.name}", "s", [p["wall"] for p in traces])
        table.add(f"trace.unattributed_s.{w.name}", "s", [traced["wall"] - sum(own.values())])
        table.add(f"trace.overhead_s.{w.name}", "s", [traced["wall"] - plain["wall"]])
        cli_self += own["cli"]

        def span_total(name):
            return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

        if w.name == "grid_quadratic":
            stamps = plain["stamps"][0]
            cells_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])] or [0.0]
            pcts = statistics.quantiles(cells_ms, n=20) if len(cells_ms) > 1 else cells_ms * 19
            table.add("sweep.cell_ms_p50", "ms", [statistics.median(cells_ms)])
            table.add("sweep.cell_ms_p95", "ms", [pcts[18]])
            table.add("sweep.export_heatmap_ms", "ms", [1e3 * span_total("sweep.export_heatmap")])
            separability = sum(s["calls"].get("sweep.separability_index", [0, 0.0])[1]
                               for s in spans)
            table.add("sweep.separability_ms", "ms", [1e3 * separability])
        elif w.name == "mlp_holdout":
            table.add("sweep.first_result_s", "s",
                      [p["stamps"][0][0] - p["starts"][0] for p in plains])
            busy = sum(s["end"] - s["start"] for r in workers for s in r["spans"]
                       if s["name"] == "runner.run_trial")
            table.add("sweep.pool_busy_share", "fraction",
                      [busy / (MLP_WORKERS * span_total("sweep.run_sweep"))])
        elif w.name == "trial_record":
            table.add("runner.rows_written", "count", [traced["rows"]])
    table.add("sweep.cells_failed", "count", [failed_cells])
    table.add("cli.self_s", "s", [cli_self])
    return dump


def measure(src: Path, work_root: Path, seed: int, seconds: float, smoke: bool) -> dict:
    sys.path.insert(0, str(src))
    import avagrad_lab
    import avagrad_lab.cli  # noqa: F401

    if not Path(avagrad_lab.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: imported avagrad_lab from {avagrad_lab.__file__}, not from {src}")
    work_root.mkdir(exist_ok=True)
    table, tally = Table(), Tally()
    work = Path(tempfile.mkdtemp(prefix="micro-", dir=work_root))
    try:
        micro_benchmarks(table, seed, 0.0 if smoke else seconds / 3, smoke, work)
    finally:
        shutil.rmtree(work)
    table.add("cli.import_s", "s", import_seconds(src, 1 if smoke else MIN_SAMPLES))
    spans = traced_workloads(avagrad_lab, table, seed, 1 if smoke else TRACE_ROUNDS, smoke,
                             work_root, tally)
    (work_root / "spans.json").write_text(json.dumps(spans) + "\n")
    table.print()
    bad = [n for n, (_, xs) in table.rows.items() if not all(math.isfinite(x) for x in xs)]
    if bad:
        print(f"# non-finite metrics: {bad}", file=sys.stderr)
    return {"correct": tally.correct and not bad, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": table.metrics()}
