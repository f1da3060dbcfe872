"""Deterministic learning-rate / adaptability grid sweeps.

A sweep enumerates (method, alpha, epsilon, seed) cells, runs one trial per
cell with a seed mixed purely from the cell's identity, and scores the final
iterate with a problem-level metric. The cells of one method run in blocks,
each block as the lock-step lanes of one runner batch. Diverged cells are
kept and ranked worst so per-column argmins stay defined. The separability
index summarises how much the best alpha moves as epsilon changes: 1.0 means
one alpha wins every epsilon column.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import RngStream, Schedule, mix_seed, write_csv
from .optim import DecayMode, HyperParams, Method
from .problems import LabeledSet, MlpProblem, StochasticProblem
from .runner import STATUS_DIVERGED, TrialConfig, TrialRecord, run_trial, run_trials

METRICS = ("full_objective", "holdout_ce", "holdout_error")

#: scalars of per-lane state one block may hold: lanes x (dim + draw_size).
#: Peak memory grows with the block width, and a few dozen lanes already
#: take most of the per-step overhead off each cell.
BLOCK_SCALARS = 2048

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


def _cell_metric(spec: GridSpec, w_final: np.ndarray) -> float:
    if spec.metric == "full_objective":
        return float(spec.problem.objective(w_final))
    if spec.metric == "holdout_ce":
        return spec.problem.dataset_loss(w_final, spec.holdout)
    return spec.problem.dataset_error(w_final, spec.holdout)


def _cell_config(spec: GridSpec, task: tuple[int, int, int, int]) -> TrialConfig:
    mi, ai, ei, si = task
    cell_seed = mix_seed(spec.base_seed, mi, ai, ei, si)
    if spec.w1 is not None:
        w1 = np.array(spec.w1, dtype=np.float64)
    else:
        w1 = spec.init_scale * RngStream(mix_seed(cell_seed, 0)).normal(spec.problem.dim)
    return TrialConfig(
        method=spec.methods[mi],
        hp=spec.hyper_params(spec.alphas[ai], spec.epsilons[ei]),
        problem=spec.problem,
        T=spec.T,
        w1=w1,
        seed=mix_seed(cell_seed, 1),
        record_every=spec.T,
        capture_trace=False,  # only the final iterate is scored
        grad_metric="none",
    )


def _cell(spec: GridSpec, task: tuple[int, int, int, int], status: str,
          metric: float = math.inf) -> HeatmapCell:
    mi, ai, ei, si = task
    return HeatmapCell(spec.methods[mi].value, spec.alphas[ai], spec.epsilons[ei],
                       spec.seeds[si], metric, status)


def _scored_cell(spec: GridSpec, task: tuple[int, int, int, int],
                 record: TrialRecord) -> HeatmapCell:
    metric = math.inf if record.status == STATUS_DIVERGED else _cell_metric(spec, record.w_final)
    if not math.isfinite(metric):
        return _cell(spec, task, STATUS_DIVERGED)
    return _cell(spec, task, record.status, metric)


def _run_block(spec: GridSpec, block: list[tuple[int, int, int, int]]) -> list[HeatmapCell]:
    """Run one block of cells of one method as the lanes of one batch.

    Only a numeric failure is caught; a programming error must surface, not
    become a cell. A block that fails is run again one cell at a time, so
    that only the cells that fail are marked failed.
    """
    cfgs = [_cell_config(spec, task) for task in block]
    try:
        return [_scored_cell(spec, task, record)
                for task, record in zip(block, run_trials(cfgs))]
    except ArithmeticError:
        pass
    cells = []
    for task, cfg in zip(block, cfgs):
        try:
            cells.append(_scored_cell(spec, task, run_trial(cfg)))
        except ArithmeticError:
            cells.append(_cell(spec, task, "failed"))
    return cells


def _blocks(spec: GridSpec) -> list[list[tuple[int, int, int, int]]]:
    """Each method's cells in task order, cut into blocks of at most
    BLOCK_SCALARS // (dim + draw_size) lanes."""
    width = max(1, BLOCK_SCALARS // (spec.problem.dim + spec.problem.draw_size))
    blocks = []
    for mi in range(len(spec.methods)):
        tasks = [(mi, ai, ei, si)
                 for ai in range(len(spec.alphas))
                 for ei in range(len(spec.epsilons))
                 for si in range(len(spec.seeds))]
        blocks += [tasks[i:i + width] for i in range(0, len(tasks), width)]
    return blocks


_WORKER_SPEC: GridSpec | None = None


def _init_worker(spec: GridSpec) -> None:
    global _WORKER_SPEC
    _WORKER_SPEC = spec


def _run_block_worker(block: list[tuple[int, int, int, int]]) -> list[HeatmapCell]:
    return _run_block(_WORKER_SPEC, block)


def run_sweep(spec: GridSpec, workers: int = 1, progress=None) -> list[HeatmapCell]:
    """Run every grid cell exactly once and return cells sorted by identity.

    Cells run in blocks of one method, each block as the lock-step lanes of
    one batch, and workers take whole blocks. The per-cell seed depends only
    on (method index, alpha index, epsilon index, seed index), and a lane
    gets the record it would get alone, so the output is identical for any
    worker count and block width. Progress is written to `progress`
    (defaults to stderr) as one done/total line per block, counted in cells.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if progress is None:
        progress = sys.stderr
    blocks = _blocks(spec)
    total = sum(len(block) for block in blocks)
    cells: list[HeatmapCell] = []
    if workers == 1:
        for block in blocks:
            cells += _run_block(spec, block)
            print(f"{len(cells)}/{total}", file=progress)
    else:
        from concurrent.futures import ProcessPoolExecutor  # here, so the CLI starts without it

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(spec,)) as pool:
            for block_cells in pool.map(_run_block_worker, blocks):
                cells += block_cells
                print(f"{len(cells)}/{total}", file=progress)
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
