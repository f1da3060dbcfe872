"""Deterministic learning-rate / adaptability grid sweeps.

A sweep enumerates (method, alpha, epsilon, seed) cells, runs one trial per
cell with a seed mixed purely from the cell's identity, and scores the final
iterate with a problem-level metric. The cells of one method run in blocks,
each block as the lock-step lanes of one runner batch, seeded by three array
calls of mix_seed and scored by one call of the metric. With n workers the
cells are dealt into n interleaved shares: the calling process runs one, and
a forked child runs each of the others and pipes its cells back. Diverged
cells are kept and ranked worst so per-column argmins stay defined. The
separability index summarises how much the best alpha moves as epsilon
changes: 1.0 means one alpha wins every epsilon column.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
from dataclasses import dataclass

import numpy as np

from .core import RngStream, Schedule, lane_draws, mix_seed, write_csv
from .optim import DecayMode, HyperParams, Method
from .problems import LabeledSet, MlpProblem, StochasticProblem
from .runner import STATUS_DIVERGED, TrialConfig, TrialRecord, run_trial, run_trials

METRICS = ("full_objective", "holdout_ce", "holdout_error")

#: scalars of per-lane state one block may hold: lanes x (dim + draw_size).
#: An MLP block step costs 7-8 us a lane at 37-74 lanes, 10 at 125. The bound
#: fits 125 lanes at dim 99, batch 32, so criterion 9's grid on 2 workers runs
#: one block per method and process; peak memory grows with the block width.
BLOCK_SCALARS = 16384

HEATMAP_COLUMNS = ("method", "alpha", "epsilon", "seed", "final_metric", "status")


def default_grid() -> tuple[list[float], list[float]]:
    """The full 21 x 21 sweep grid.

    epsilon runs over powers of ten times 1 and 2 from 1e-8 up to 100;
    alpha runs over powers of ten times 1 and 5 from 5e-7 up to 5000.
    """
    epsilons = []
    for k in range(-8, 2):
        epsilons.append(float(f"1e{k}"))
        epsilons.append(float(f"2e{k}"))
    epsilons.append(float("1e2"))
    alphas = [float("5e-7")]
    for k in range(-6, 4):
        alphas.append(float(f"1e{k}"))
        alphas.append(float(f"5e{k}"))
    return alphas, epsilons


@dataclass
class GridSpec:
    """One sweep: the grid axes, per-cell trial settings, and the scoring metric."""

    problem: StochasticProblem
    methods: list[Method]
    alphas: list[float]
    epsilons: list[float]
    seeds: list[int]
    T: int
    base_seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    decay_mode: DecayMode = DecayMode.NONE
    w1: np.ndarray | None = None  # fixed start; None draws N(0, init_scale^2) per cell
    init_scale: float = 0.1
    metric: str = "full_objective"
    holdout: LabeledSet | None = None

    def __post_init__(self):
        self.methods = [Method(m) for m in self.methods]
        for name in ("methods", "seeds"):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if len(set(vals)) != len(vals):  # a cell's identity would repeat
                raise ValueError(f"{name} must not repeat")
        for name in ("alphas", "epsilons"):
            vals = getattr(self, name)
            if not vals:
                raise ValueError(f"{name} must be non-empty")
            if any(not (0.0 < v < math.inf) for v in vals):
                raise ValueError(f"{name} must be finite and strictly positive")
            if sorted(vals) != list(vals) or len(set(vals)) != len(vals):
                raise ValueError(f"{name} must be strictly ascending")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.metric.startswith("holdout"):
            if self.holdout is None:
                raise ValueError("holdout metrics need a holdout dataset")
            if not isinstance(self.problem, MlpProblem):
                raise ValueError("holdout metrics only apply to the MLP problem")
        if self.metric == "full_objective" and self.problem.objective(
            np.zeros(self.problem.dim)
        ) is None:
            raise ValueError("problem has no exact objective; pick another metric")
        self.hyper_params(self.alphas[0], self.epsilons[0])  # rejects bad betas or decay

    def hyper_params(self, alpha: float, epsilon: float) -> HyperParams:
        return HyperParams(
            alpha=Schedule.constant(alpha),
            epsilon=epsilon,
            beta1=Schedule.constant(self.beta1),
            beta2=Schedule.constant(self.beta2),
            weight_decay=self.weight_decay,
            decay_mode=self.decay_mode,
        )


@dataclass(frozen=True)
class HeatmapCell:
    """Result of one (method, alpha, epsilon, seed) trial."""

    method: str
    alpha: float
    epsilon: float
    seed: int
    final_metric: float  # +inf encodes a diverged or failed cell
    status: str

    @property
    def sort_key(self):
        return (self.method, self.alpha, self.epsilon, self.seed)


def _block_configs(spec: GridSpec, block: list[tuple[int, int, int, int]]) -> list[TrialConfig]:
    """The trial configs of a block of cells, seeded by three array calls of
    mix_seed: a cell's seed mixes its identity, and the seeds of its random
    start and of its stream mix the cell's seed with 0 and with 1. The random
    starts are one lane draw of the block's start streams."""
    cell_seeds = mix_seed(spec.base_seed, *np.array(block, dtype=np.uint64).T)
    start_seeds, seeds = mix_seed(cell_seeds, 0).tolist(), mix_seed(cell_seeds, 1).tolist()
    shared = spec.hyper_params(spec.alphas[0], spec.epsilons[0])  # one pair of beta schedules
    if spec.w1 is not None:
        starts = np.array([spec.w1] * len(block), dtype=np.float64)
    else:
        starts = spec.init_scale * lane_draws([RngStream(s) for s in start_seeds], "normal", 1,
                                              (spec.problem.dim,))[0]
    cfgs = []
    for (mi, ai, ei, _), seed, w1 in zip(block, seeds, starts):
        hp = HyperParams(Schedule.constant(spec.alphas[ai]), spec.epsilons[ei], shared.beta1,
                         shared.beta2, shared.weight_decay, shared.decay_mode)
        cfgs.append(TrialConfig(method=spec.methods[mi], hp=hp, problem=spec.problem, T=spec.T,
                                w1=w1, seed=seed, record_every=spec.T,
                                capture_trace=False,  # only the final iterate is scored
                                grad_metric="none"))
    return cfgs


def _cell(spec: GridSpec, task: tuple[int, int, int, int], status: str,
          metric: float = math.inf) -> HeatmapCell:
    mi, ai, ei, si = task
    return HeatmapCell(spec.methods[mi].value, spec.alphas[ai], spec.epsilons[ei],
                       spec.seeds[si], metric, status)


def _scored_cells(spec: GridSpec, block: list[tuple[int, int, int, int]],
                  records: list[TrialRecord]) -> list[HeatmapCell]:
    """Score the final iterates of a block's finished lanes with one metric call;
    a diverged lane, or one whose metric is not finite, is a diverged cell."""
    lanes = [p for p, record in enumerate(records) if record.status != STATUS_DIVERGED]
    metrics = [math.inf] * len(records)
    if lanes:
        w = np.array([records[p].w_final for p in lanes])
        if spec.metric == "full_objective":
            scores = spec.problem.objective(w)
        elif spec.metric == "holdout_ce":
            scores = spec.problem.dataset_loss(w, spec.holdout)
        else:
            scores = spec.problem.dataset_error(w, spec.holdout)
        for p, score in zip(lanes, scores.tolist()):
            metrics[p] = score
    return [_cell(spec, task, record.status, metric) if math.isfinite(metric)
            else _cell(spec, task, STATUS_DIVERGED)
            for task, record, metric in zip(block, records, metrics)]


def _run_block(spec: GridSpec, block: list[tuple[int, int, int, int]]) -> list[HeatmapCell]:
    """Run one block of cells of one method as the lanes of one batch.

    Only a numeric failure is caught; a programming error must surface, not
    become a cell. A block that fails is run again one cell at a time, so
    that only the cells that fail are marked failed.
    """
    cfgs = _block_configs(spec, block)
    try:
        return _scored_cells(spec, block, run_trials(cfgs))
    except ArithmeticError:
        pass
    cells = []
    for task, cfg in zip(block, cfgs):
        try:
            cells += _scored_cells(spec, [task], [run_trial(cfg)])
        except ArithmeticError:
            cells.append(_cell(spec, task, "failed"))
    return cells


def _blocks(spec: GridSpec, part: int, parts: int) -> list[list[tuple[int, int, int, int]]]:
    """Every parts-th of each method's cells in task order from cell `part` on,
    so every share mixes alphas, epsilons and seeds (and so diverging cells)
    alike, cut into blocks of at most BLOCK_SCALARS // (dim + draw_size) lanes."""
    width = max(1, BLOCK_SCALARS // (spec.problem.dim + spec.problem.draw_size))
    blocks = []
    for mi in range(len(spec.methods)):
        tasks = [(mi, ai, ei, si)
                 for ai in range(len(spec.alphas))
                 for ei in range(len(spec.epsilons))
                 for si in range(len(spec.seeds))][part::parts]
        blocks += [tasks[i:i + width] for i in range(0, len(tasks), width)]
    return blocks


def _fork(spec: GridSpec, blocks: list):
    """Run `blocks` in a forked child that pickles `(True, per-block cells)`
    or `(False, error)` into a pipe; returns its pid and the pipe, open to
    read. The child leaves through os._exit, never through the caller's frames.
    On Linux the kernel SIGKILLs the child when the forking thread dies, so a
    killed sweep leaves no worker running."""
    read, write = os.pipe()
    parent = os.getpid()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:
        if sys.platform.startswith("linux"):
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL
            if os.getppid() != parent:  # the parent died before the tie was made
                os._exit(1)
        os.close(read)
        try:
            data = pickle.dumps((True, [_run_block(spec, block) for block in blocks]))
        except BaseException as exc:  # raised again in the parent
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:  # the error does not survive a pickle round trip
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as pipe:
            pipe.write(data)
        os._exit(0)
    finally:
        os._exit(1)


def run_sweep(spec: GridSpec, workers: int = 1, progress=None) -> list[HeatmapCell]:
    """Run every grid cell exactly once and return cells sorted by identity.

    Cells run in blocks of one method, each block as the lock-step lanes of
    one batch. This process runs share 0 of `workers` interleaved shares and
    forks a child for each other non-empty one (without os.fork it runs them
    all); a child's error is raised here, and no child outlives the call.
    The per-cell seed depends only on (method index, alpha index, epsilon
    index, seed index), and a lane gets the record it would get alone, so the
    output is identical for any worker count and block width. Progress is
    written to `progress` (defaults to stderr) as one done/total line per
    block, counted in cells.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if progress is None:
        progress = sys.stderr
    parts = workers if hasattr(os, "fork") else 1
    shares = [_blocks(spec, part, parts) for part in range(parts)]
    total = sum(len(block) for share in shares for block in share)
    children = {}  # pid -> its pipe
    cells: list[HeatmapCell] = []
    try:
        # update() keeps the children forked before a fork that fails
        children.update(_fork(spec, share) for share in shares[1:] if share)
        for block in shares[0]:
            cells += _run_block(spec, block)
            print(f"{len(cells)}/{total}", file=progress)
        for pid, pipe in list(children.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code:
                raise RuntimeError(f"sweep worker {pid} exited with status {code} and no result")
            ok, result = pickle.loads(data)
            if not ok:
                raise result
            for block_cells in result:
                cells += block_cells
                print(f"{len(cells)}/{total}", file=progress)
    finally:  # only an error leaves children here
        for pid, pipe in children.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()
    cells.sort(key=lambda c: c.sort_key)
    return cells


def separability_index(cells: list[HeatmapCell], method: Method | str) -> float:
    """Fraction of epsilon columns whose best alpha equals the modal best alpha.

    The per-column metric is the seed-mean of final_metric with diverged cells
    at +inf; ties break toward smaller alpha, both per column and for the mode.
    """
    name = method.value if isinstance(method, Method) else str(method)
    mine = [c for c in cells if c.method == name]
    if not mine:
        raise ValueError(f"no cells for method {name}")
    epsilons = sorted({c.epsilon for c in mine})
    alphas = sorted({c.alpha for c in mine})
    if len(epsilons) < 2:
        raise ValueError("separability needs at least two epsilon values")
    by_cell: dict[tuple[float, float], list[float]] = {}
    for c in mine:
        by_cell.setdefault((c.alpha, c.epsilon), []).append(c.final_metric)
    argmins = []
    for eps in epsilons:
        best_alpha = None
        best_val = math.inf
        for alpha in alphas:
            vals = by_cell.get((alpha, eps))
            if not vals:
                raise ValueError(f"incomplete grid: missing cell alpha={alpha} epsilon={eps}")
            mean = sum(vals) / len(vals)
            if mean < best_val:
                best_val = mean
                best_alpha = alpha
        if best_alpha is None:
            raise ValueError(f"all cells diverged for epsilon={eps}")
        argmins.append(best_alpha)
    counts: dict[float, int] = {}
    for a in argmins:
        counts[a] = counts.get(a, 0) + 1
    modal = min((a for a in counts), key=lambda a: (-counts[a], a))
    return counts[modal] / len(epsilons)


def export_heatmap(cells: list[HeatmapCell], path) -> None:
    """Write sorted cells as CSV; diverged cells carry an empty metric field."""
    rows = ((c.method, c.alpha, c.epsilon, c.seed,
             c.final_metric if math.isfinite(c.final_metric) else "", c.status)
            for c in sorted(cells, key=lambda c: c.sort_key))
    write_csv(path, HEATMAP_COLUMNS, rows, "heatmap")
