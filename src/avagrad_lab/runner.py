"""Trial execution and diagnostics.

A trial drives one optimizer over one stochastic problem, accumulating prefix
statistics (mean iterate, mean squared gradient norm, the rate-weighted mass
Z) at full resolution while logging CSV rows at a configurable stride. One
loop runs every trial: it advances n trials that differ only in w1 and seed
in lock-step, as the (n, d) lanes of optim.lane_update. run_trial is its
one-lane case; run_synth_replicas runs n seeded replicas of the scalar
two-outcome benchmark. Each lane gets exactly the record it would get alone.

On top of the records sit the diagnostics: iterate_distribution (step weights
proportional to alpha_t * min_i eta_{t,i}), eval_bound (empirical check of the
square-root-rate guarantee in its conditional, momentum, and unconditional
forms), and bias_gap (the exact expectation gap between sample-coupled and
delayed rates on finite-outcome problems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream, clamp_box, mix_seed, schedule_eval
from .optim import HyperParams, Method, OptimizerState, lane_update
from .optim import init_state, step  # noqa: F401  (perfbench/tracer.py wraps these names)
from .problems import ProblemConstants, StochasticProblem, SynthProblem

ROW_COLUMNS = ("t", "w_mean", "grad_norm_sq_mean", "alpha_t", "eta_min", "eta_l2", "alpha_eff")

GRAD_METRICS = ("full", "batch", "none")

STATUS_FINISHED = "finished"
STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"


@dataclass
class TrialConfig:
    """Everything needed to reproduce one trial bit-for-bit."""

    method: Method
    hp: HyperParams
    problem: StochasticProblem
    T: int
    w1: np.ndarray
    seed: int
    record_every: int = 1
    capture_trace: bool = False
    grad_metric: str = "full"  # full | batch | none
    converge_tol: float | None = None


@dataclass
class TrialTrace:
    """Full-resolution per-step series (one entry per completed step)."""

    alpha: np.ndarray
    eta_min: np.ndarray
    eta_max: np.ndarray
    eta_l2: np.ndarray
    alpha_eff: np.ndarray
    grad_norm_sq: np.ndarray


@dataclass
class TrialRecord:
    """Outcome of one trial: final prefix statistics, strided rows, optional trace."""

    config: TrialConfig
    status: str
    steps_done: int
    w_mean: float
    grad_norm_sq_mean: float
    z_weight_sum: float
    grad_metric_exact: bool
    w_final: np.ndarray
    rows: np.ndarray  # shape (n_rows, 7), columns per ROW_COLUMNS
    trace: TrialTrace | None = None


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Execute one trial; divergence stops early and keeps the partial statistics."""
    if cfg.T < 1:
        raise ValueError("T must be >= 1")
    if cfg.record_every < 1:
        raise ValueError("record_every must be >= 1")
    if cfg.grad_metric not in GRAD_METRICS:
        raise ValueError(f"grad_metric must be one of {GRAD_METRICS}")
    w1 = np.asarray(cfg.w1, dtype=np.float64)
    if w1.shape != (cfg.problem.dim,):
        raise ValueError(f"w1 has shape {w1.shape}, problem dimension is {cfg.problem.dim}")
    return _run_lanes([cfg])[0]


def run_synth_replicas(
    problem: SynthProblem,
    method: Method,
    hp: HyperParams,
    w1: float,
    T: int,
    base_seed: int,
    n_replicas: int,
    record_every: int = 1,
    capture_trace: bool | None = None,
) -> list[TrialRecord]:
    """Run n independent replicas of the scalar benchmark in lock-step.

    Replica i is the trial run_trial would run with seed mix_seed(base_seed, i),
    and it gets exactly that trial's record, divergence included.
    """
    method = Method(method)
    if not isinstance(problem, SynthProblem):
        raise ValueError("replicas only support the scalar two-outcome benchmark")
    if T < 1 or n_replicas < 1 or record_every < 1:
        raise ValueError("T, n_replicas and record_every must all be >= 1")
    if capture_trace is None:
        capture_trace = record_every == 1
    return _run_lanes([TrialConfig(
        method=method, hp=hp, problem=problem, T=T, w1=np.array([float(w1)]),
        seed=mix_seed(base_seed, i), record_every=record_every,
        capture_trace=capture_trace, grad_metric="full") for i in range(n_replicas)])


def _run_lanes(cfgs: list[TrialConfig]) -> list[TrialRecord]:
    """Run trials that differ only in w1 and seed in lock-step, as the (n, d)
    lanes of optim.lane_update, and give each the record it would get alone.

    Each lane draws its tokens from its own stream, in chunks: Philox is
    counter-based, so a chunk of k draws equals k single draws. A lane whose
    gradient metric, gradient, iterate or buffers turn non-finite at step t
    leaves the batch there, diverged, with the statistics of the steps before.
    """
    cfg = cfgs[0]
    problem, hp, T, every = cfg.problem, cfg.hp, cfg.T, cfg.record_every
    method, d = Method(cfg.method), problem.dim
    w = np.array([c.w1 for c in cfgs], dtype=np.float64)
    grad_metric = cfg.grad_metric
    if grad_metric == "full" and problem.full_grad(w[0]) is None:
        grad_metric = "batch"  # no exact expectation available; fall back, flag it
    want_trace = cfg.capture_trace or every == 1
    eps, lam = hp.epsilon, hp.weight_decay
    schedules = (hp.alpha, hp.beta1, hp.beta2)
    varying = any(s.kind != "constant" for s in schedules)  # else evaluated once, here
    alpha, b1, b2 = [s.base for s in schedules]

    # Lane state. Per-lane scalars are (n, 1) columns, like avagrad's alpha_eff;
    # the lane axis is 0, except in tokens (1) and the row and trace buffers (2).
    # A diverged lane is dropped from all of them.
    n = len(cfgs)
    ids = np.arange(n)
    streams = [RngStream(c.seed) for c in cfgs]
    m, v = np.zeros((n, d)), np.zeros((n, d))
    v_hat = np.zeros((n, d)) if method is Method.AMSGRAD else None
    w_sum, gs_sum, z_sum = np.zeros((n, 1)), np.zeros((n, 1)), np.zeros((n, 1))
    rows, n_rows = np.empty((T // every + (T % every > 0), len(ROW_COLUMNS), n, 1)), 0
    tr = np.empty((6, T, n, 1)) if want_trace else None  # the TrialTrace fields, in order
    eta = eta_min = alpha_eff = None  # of the last completed step
    gs = math.nan
    records: list[TrialRecord | None] = [None] * n
    no_rows = np.empty((0, len(ROW_COLUMNS)))

    def record(p: int, status: str, done: int, flushed=no_rows) -> TrialRecord:
        return TrialRecord(
            config=cfgs[ids[p]],
            status=status,
            steps_done=done,
            w_mean=float(w_sum[p, 0]) / done if done else math.nan,
            grad_norm_sq_mean=float(gs_sum[p, 0]) / done if done else math.nan,
            z_weight_sum=float(z_sum[p, 0]),
            grad_metric_exact=(grad_metric == "full"),
            w_final=w[p].copy(),
            rows=np.concatenate((rows[:n_rows, :, p, 0], flushed)),
            trace=TrialTrace(*tr[:, :done, p, 0]) if want_trace else None,
        )

    span = max(1, 65536 // problem.draw_size)  # steps of tokens drawn ahead, <= 65536 scalars
    k = span
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if k == span:
                span, k = min(span, T - t + 1), 0
                tokens = np.array([problem.sample(rng, span) for rng in streams]).swapaxes(0, 1)
            if varying:
                alpha, b1, b2 = [schedule_eval(s, t) for s in schedules]
            while True:  # once, unless a lane diverges: then again without it
                g = problem.grad(w, tokens[k])
                if grad_metric != "none":
                    x = problem.full_grad(w) if grad_metric == "full" else g
                    gs = x * x if d == 1 else np.vecdot(x, x)[:, None]  # x @ x, bit for bit
                w_next, m_next, v_next, v_hat_next, eta_t, alpha_eff_t = lane_update(
                    method, hp.decay_mode, w, m, v, v_hat, g, alpha, b1, b2, eps, lam)
                # A sum of products is finite only if every factor is. A non-finite
                # g or m_next makes w_next non-finite (1 - b1 and 1 - b2 are > 0),
                # and v_hat_next is finite when v_next is, so this screen is sound.
                screen = np.vdot(w_next if grad_metric == "none" else w_next * gs, v_next)
                if math.isfinite(screen):
                    break
                ok = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in (
                    gs, g, w_next, m_next, v_next, v_hat_next) if isinstance(a, np.ndarray)])
                if ok.all():
                    break
                done = t - 1
                for p in np.flatnonzero(~ok):
                    flushed = no_rows
                    if done % every:  # the final row is always flushed, whatever the stride
                        flushed = np.array([[done, w_sum[p, 0] / done, gs_sum[p, 0] / done,
                                             schedule_eval(hp.alpha, done), eta_min[p, 0],
                                             np.sqrt(np.sum(eta[p] * eta[p])),
                                             np.broadcast_to(alpha_eff, (len(ids), 1))[p, 0]]])
                    records[ids[p]] = record(p, STATUS_DIVERGED, done, flushed)
                keep = np.flatnonzero(ok)
                streams = [streams[p] for p in keep]
                tokens, rows = tokens[:, keep], rows[:, :, keep]
                tr = tr[:, :, keep] if want_trace else None
                lane_state = (ids, w, m, v, v_hat, w_sum, gs_sum, z_sum)
                ids, w, m, v, v_hat, w_sum, gs_sum, z_sum = [
                    None if a is None else a[keep] for a in lane_state]
                if not len(ids):
                    return records  # else the step is redone: the kept lanes were finite
            k += 1
            m, v, v_hat, eta, alpha_eff = m_next, v_next, v_hat_next, eta_t, alpha_eff_t
            if d == 1:  # the mean and the min of one coordinate are that coordinate
                w_mean, eta_min = w, eta
            else:
                w_mean = np.add.reduce(w, axis=-1, keepdims=True) / d  # np.mean, bit for bit
                eta_min = np.minimum.reduce(eta, axis=-1, keepdims=True)
            w_sum += w_mean
            gs_sum += gs
            z_sum += alpha * eta_min
            row_due = t % every == 0 or t == T
            if want_trace or row_due:
                eta_l2 = np.sqrt(np.add.reduce(eta * eta, axis=-1, keepdims=True))
            if want_trace:
                eta_max = np.maximum.reduce(eta, axis=-1, keepdims=True)
                for j, val in enumerate((alpha, eta_min, eta_max, eta_l2, alpha_eff, gs)):
                    tr[j, t - 1] = val
            if row_due:
                for j, val in enumerate((t, w_sum / t, gs_sum / t, alpha, eta_min, eta_l2,
                                         alpha_eff)):
                    rows[n_rows, j] = val
                n_rows += 1
            w = clamp_box(w_next, *problem.box) if problem.box is not None else w_next

    tol = cfg.converge_tol
    for p, i in enumerate(ids):  # the lanes that ran all T steps
        converged = tol is not None and grad_metric != "none" and gs[p, 0] <= tol
        records[i] = record(p, STATUS_CONVERGED if converged else STATUS_FINISHED, T)
    return records


def _require_trace(record: TrialRecord) -> TrialTrace:
    if record.status == STATUS_DIVERGED:
        raise ValueError("trial diverged; diagnostics are undefined")
    if record.trace is None:
        raise ValueError(
            "full-resolution trace required: run with record_every=1 or capture_trace=True"
        )
    return record.trace


def iterate_distribution(record: TrialRecord, uniform: bool = False) -> np.ndarray:
    """Step weights p(t) proportional to alpha_t * min_i eta_{t,i}, summing to 1.

    With uniform=True every step gets weight 1/T instead (the natural choice
    when alpha is constant and the rates are method-independent).
    """
    trace = _require_trace(record)
    T = record.steps_done
    if uniform:
        return np.full(T, 1.0 / T)
    weights = trace.alpha * trace.eta_min
    total = float(np.sum(weights))
    if not (total > 0.0 and math.isfinite(total)):
        raise ValueError("degenerate step weights; cannot normalise")
    return weights / total


BOUND_VARIANTS = ("conditional", "momentum", "unconditional")


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the rate bound: realised weighted gradient mass vs limit."""

    variant: str
    lhs: float
    rhs: float
    constants: ProblemConstants
    steps: int

    @property
    def ratio(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else math.inf


def _beta1_is_zero(hp: HyperParams) -> bool:
    return hp.beta1.kind == "constant" and hp.beta1.base == 0.0


def eval_bound(record: TrialRecord, constants: ProblemConstants, variant: str) -> BoundReport:
    """Evaluate one variant of the convergence-rate bound on a finished trial.

    conditional    needs beta1 = 0; uses the realised per-step rates.
    momentum       needs the beta1/sqrt(t) schedule; adds the momentum penalty
                   term with the sum of 1/sqrt(t) bounded by 2*sqrt(T).
    unconditional  needs beta1 = 0; replaces realised rates by the worst-case
                   window [1/(G2+eps), 1/eps], so the limit does not depend on
                   the drawn samples and the step weights reduce to alpha_t.
    """
    if variant not in BOUND_VARIANTS:
        raise ValueError(f"variant must be one of {BOUND_VARIANTS}")
    trace = _require_trace(record)
    if not np.all(np.isfinite(trace.grad_norm_sq)):
        raise ValueError("gradient-norm trace unavailable for this record")
    if constants is None or constants.g_inf is None or constants.g_2 is None:
        raise ValueError("bound evaluation needs m_smooth, d_gap, g_inf and g_2")

    hp = record.config.hp
    method = record.config.method
    T = record.steps_done
    d = record.config.problem.dim
    m_s, d_gap, g_inf, g_2 = constants.m_smooth, constants.d_gap, constants.g_inf, constants.g_2
    base = math.sqrt(m_s * d_gap * g_inf * g_inf / (2.0 * T))

    if method in (Method.AVAGRAD, Method.AVAGRADW):
        # the rescaled global rate is alpha * sqrt(d) / ||eta||: recover its gamma directly
        gamma = trace.alpha_eff / trace.alpha
    else:
        if d_gap <= 0.0:
            raise ValueError("d_gap must be positive to relate alpha_t to gamma_t")
        gamma = trace.alpha * math.sqrt(T * m_s * g_inf * g_inf / (2.0 * d_gap))

    if variant == "unconditional":
        if not _beta1_is_zero(hp):
            raise ValueError("unconditional variant requires beta1 = 0")
        weights = trace.alpha / float(np.sum(trace.alpha))
        lhs = float(np.sum(weights * trace.grad_norm_sq))
        h_cap = 1.0 / hp.epsilon
        l_cap = 1.0 / (g_2 + hp.epsilon)
        numer = T + d * h_cap * h_cap * float(np.sum(gamma * gamma))
        denom = l_cap * float(np.sum(gamma))
        rhs = base * numer / denom
    else:
        weights = iterate_distribution(record)
        lhs = float(np.sum(weights * trace.grad_norm_sq))
        numer = T + float(np.sum(gamma * gamma * trace.eta_l2 * trace.eta_l2))
        denom = float(np.sum(gamma * trace.eta_min))
        if variant == "conditional":
            if not _beta1_is_zero(hp):
                raise ValueError("conditional variant requires beta1 = 0; use 'momentum'")
            rhs = base * numer / denom
        else:
            if hp.beta1.kind != "inverse_sqrt":
                raise ValueError("momentum variant assumes the beta1/sqrt(t) schedule")
            b1 = hp.beta1.base
            penalty = (
                2.0 * T * b1 * math.sqrt(2.0 * d * g_2 * g_2 / (m_s * d_gap))
                * float(np.max(gamma * trace.eta_max))
            )
            rhs = base * (penalty + numer) / denom / (1.0 - b1)

    return BoundReport(variant=variant, lhs=lhs, rhs=rhs, constants=constants, steps=T)


def bias_gap(
    w: np.ndarray,
    state: OptimizerState,
    hp: HyperParams,
    problem: StochasticProblem,
    mode: str,
) -> np.ndarray:
    """Exact expectation gap between the rates of the next step and their
    sample-independent counterpart, enumerated over the problem's outcomes.

    Returns sum_s p(s) * (eta_mode(s) - eta_delayed) (*) grad(w, s) for the
    step the state is about to take. The delayed mode's rate does not depend
    on the sample, so its gap is exactly the zero vector; the coupled mode
    (rates including the current draw) generally is not.
    """
    if mode not in ("adam", "delayed"):
        raise ValueError("mode must be 'adam' or 'delayed'")
    outcomes = problem.outcomes()
    if outcomes is None:
        raise ValueError("bias_gap needs a problem with enumerable outcomes")
    t = state.t + 1
    b2 = schedule_eval(hp.beta2, t)
    eps = hp.epsilon
    eta_ref = 1.0 / (np.sqrt(state.v) + eps)
    gap = np.zeros(problem.dim)
    for prob_s, token in outcomes:
        g_s = problem.grad(w, token)
        if mode == "adam":
            v_s = b2 * state.v + (1.0 - b2) * (g_s * g_s)
            eta_s = 1.0 / (np.sqrt(v_s) + eps)
        else:
            eta_s = eta_ref
        gap = gap + prob_s * ((eta_s - eta_ref) * g_s)
    return gap


def export_trajectory(record: TrialRecord, path) -> None:
    """Write the strided rows as CSV with a fixed header; bytes are
    deterministic for a fixed seed (17 significant digit float format)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(ROW_COLUMNS) + "\n")
            for row in record.rows:
                fields = [str(int(row[0]))] + [f"{val:.17g}" for val in row[1:]]
                fh.write(",".join(fields) + "\n")
    except OSError as exc:
        raise OSError(f"writing trajectory to {path}: {exc}") from exc


def summary_line(record: TrialRecord) -> str:
    """Machine-parseable one-line trial summary."""
    return (
        f"status={record.status}"
        f" final_grad_norm_sq_mean={record.grad_norm_sq_mean:.17g}"
        f" Z={record.z_weight_sum:.17g}"
    )
