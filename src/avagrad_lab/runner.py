"""Trial execution and diagnostics.

run_trial drives one optimizer over one stochastic problem, accumulating
prefix statistics (mean iterate, mean squared gradient norm, the rate-weighted
mass Z) at full resolution while logging CSV rows at a configurable stride.
run_synth_replicas is a vectorised fast path for the scalar two-outcome
benchmark: it advances many independent replicas in lock-step as lanes of
optim.lane_update, the same update step() applies, for every method and decay
mode, and produces records bit-identical to run_trial.

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

from .core import NonFiniteError, RngStream, clamp_box, mix_seed, schedule_eval
from .optim import HyperParams, Method, OptimizerState, init_state, lane_update, step
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


def _wants_trace(cfg: TrialConfig) -> bool:
    return cfg.capture_trace or cfg.record_every == 1


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Execute one trial; divergence stops early and keeps the partial statistics."""
    problem = cfg.problem
    if cfg.T < 1:
        raise ValueError("T must be >= 1")
    if cfg.record_every < 1:
        raise ValueError("record_every must be >= 1")
    if cfg.grad_metric not in GRAD_METRICS:
        raise ValueError(f"grad_metric must be one of {GRAD_METRICS}")
    w = np.array(cfg.w1, dtype=np.float64)
    if w.shape != (problem.dim,):
        raise ValueError(f"w1 has shape {w.shape}, problem dimension is {problem.dim}")

    grad_metric = cfg.grad_metric
    if grad_metric == "full" and problem.full_grad(w) is None:
        grad_metric = "batch"  # no exact expectation available; fall back, flag it

    rng = RngStream(cfg.seed)
    state = init_state(cfg.method, problem.dim)
    box = problem.box
    want_trace = _wants_trace(cfg)
    T = cfg.T

    if want_trace:
        tr_alpha = np.empty(T)
        tr_eta_min = np.empty(T)
        tr_eta_max = np.empty(T)
        tr_eta_l2 = np.empty(T)
        tr_alpha_eff = np.empty(T)
        tr_gs = np.empty(T)

    rows: list[list[float]] = []
    w_sum = 0.0
    gs_sum = 0.0
    z_sum = 0.0
    steps_done = 0
    last_logged_t = 0
    last_gs = math.nan
    status = STATUS_FINISHED

    for t in range(1, T + 1):
        token = problem.sample(rng)
        with np.errstate(over="ignore", invalid="ignore"):
            g = problem.grad(w, token)
            if grad_metric == "full":
                fg = problem.full_grad(w)
                gs = float(fg @ fg)
            elif grad_metric == "batch":
                gs = float(g @ g)
            else:
                gs = math.nan
        if grad_metric != "none" and not math.isfinite(gs):
            status = STATUS_DIVERGED
            break
        try:
            w_next, state, rep = step(state, cfg.hp, w, g)
        except NonFiniteError:
            status = STATUS_DIVERGED
            break
        alpha_t = schedule_eval(cfg.hp.alpha, t)
        w_sum += float(np.mean(w))
        gs_sum += gs
        z_sum += alpha_t * rep.eta_min
        steps_done = t
        last_gs = gs
        if want_trace:
            tr_alpha[t - 1] = alpha_t
            tr_eta_min[t - 1] = rep.eta_min
            tr_eta_max[t - 1] = float(np.max(rep.eta))
            tr_eta_l2[t - 1] = rep.eta_l2
            tr_alpha_eff[t - 1] = rep.alpha_eff
            tr_gs[t - 1] = gs
        if t % cfg.record_every == 0:
            rows.append([t, w_sum / t, gs_sum / t, alpha_t, rep.eta_min, rep.eta_l2, rep.alpha_eff])
            last_logged_t = t
        w = clamp_box(w_next, box[0], box[1]) if box is not None else w_next

    if steps_done >= 1 and last_logged_t != steps_done:
        # final row always flushed, whatever the stride
        rows.append(
            [steps_done, w_sum / steps_done, gs_sum / steps_done,
             tr_alpha[steps_done - 1] if want_trace else schedule_eval(cfg.hp.alpha, steps_done),
             rep.eta_min, rep.eta_l2, rep.alpha_eff]
        )

    if status == STATUS_FINISHED and cfg.converge_tol is not None and last_gs <= cfg.converge_tol:
        status = STATUS_CONVERGED

    trace = None
    if want_trace:
        trace = TrialTrace(
            alpha=tr_alpha[:steps_done],
            eta_min=tr_eta_min[:steps_done],
            eta_max=tr_eta_max[:steps_done],
            eta_l2=tr_eta_l2[:steps_done],
            alpha_eff=tr_alpha_eff[:steps_done],
            grad_norm_sq=tr_gs[:steps_done],
        )
    return TrialRecord(
        config=cfg,
        status=status,
        steps_done=steps_done,
        w_mean=w_sum / steps_done if steps_done else math.nan,
        grad_norm_sq_mean=gs_sum / steps_done if steps_done else math.nan,
        z_weight_sum=z_sum,
        grad_metric_exact=(grad_metric == "full"),
        w_final=w,
        rows=np.asarray(rows, dtype=np.float64).reshape(len(rows), len(ROW_COLUMNS)),
        trace=trace,
    )


_ENGINE_CHUNK = 65536


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

    Replica i draws from the stream seeded mix_seed(base_seed, i) and yields
    exactly the TrialRecord that run_trial would produce for that seed: each
    replica is one (1,)-lane of optim.lane_update, the update step() applies.
    """
    method = Method(method)
    if not isinstance(problem, SynthProblem):
        raise ValueError("fast path only supports the scalar two-outcome benchmark")
    if T < 1 or n_replicas < 1 or record_every < 1:
        raise ValueError("T, n_replicas and record_every must all be >= 1")
    if capture_trace is None:
        capture_trace = record_every == 1

    n = n_replicas
    p = problem.p
    big_c = problem.big_c
    slope, offs = problem.mean_slope, problem.mean_offset
    lo, hi = problem.box
    eps, lam = hp.epsilon, hp.weight_decay
    streams = [RngStream(mix_seed(base_seed, i)) for i in range(n)]

    # lanes of shape (n, 1): replica i is row i
    w = np.full((n, 1), float(w1))
    m = np.zeros((n, 1))
    v = np.zeros((n, 1))
    v_hat = np.zeros((n, 1)) if method is Method.AMSGRAD else None

    w_sum = np.zeros((n, 1))
    gs_sum = np.zeros((n, 1))
    z_sum = np.zeros((n, 1))
    n_rows = T // record_every + (1 if T % record_every else 0)
    rows = np.empty((n_rows, len(ROW_COLUMNS), n, 1))
    row_idx = 0
    if capture_trace:
        tr_alpha = np.empty(T)
        tr_eta = np.empty((T, n, 1))
        tr_alpha_eff = np.empty((T, n, 1))
        tr_gs = np.empty((T, n, 1))

    # constant schedules evaluate to the same float at every t; hoist them
    const_b1 = hp.beta1.base if hp.beta1.kind == "constant" else None
    const_b2 = hp.beta2.base if hp.beta2.kind == "constant" else None
    const_alpha = hp.alpha.base if hp.alpha.kind == "constant" else None

    t = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < T:
            span = min(_ENGINE_CHUNK, T - t)
            uniforms = np.column_stack([s.random(span) for s in streams])
            rare = (uniforms < p)[:, :, None]
            for k in range(span):
                t += 1
                b1 = const_b1 if const_b1 is not None else schedule_eval(hp.beta1, t)
                b2 = const_b2 if const_b2 is not None else schedule_eval(hp.beta2, t)
                alpha = const_alpha if const_alpha is not None else schedule_eval(hp.alpha, t)
                g = np.where(rare[k], big_c * w, -1.0)
                fg = slope * w - offs
                gs = fg * fg
                w_next, m, v, v_hat, eta, alpha_eff = lane_update(
                    method, hp.decay_mode, w, m, v, v_hat, g, alpha, b1, b2, eps, lam)
                w_sum += w
                gs_sum += gs
                z_sum += alpha * eta  # d = 1: eta is its own minimum
                if capture_trace:
                    tr_alpha[t - 1] = alpha
                    tr_eta[t - 1] = eta
                    tr_alpha_eff[t - 1] = alpha_eff
                    tr_gs[t - 1] = gs
                if t % record_every == 0 or t == T:
                    rows[row_idx, 0] = t
                    rows[row_idx, 1] = w_sum / t
                    rows[row_idx, 2] = gs_sum / t
                    rows[row_idx, 3] = alpha
                    rows[row_idx, 4] = eta
                    rows[row_idx, 5] = np.sqrt(eta * eta)
                    rows[row_idx, 6] = alpha_eff
                    row_idx += 1
                w = np.clip(w_next, lo, hi)

    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(gs_sum))):
        raise NonFiniteError("fast path produced non-finite statistics")

    records = []
    for i in range(n):
        cfg = TrialConfig(
            method=method,
            hp=hp,
            problem=problem,
            T=T,
            w1=np.array([float(w1)]),
            seed=mix_seed(base_seed, i),
            record_every=record_every,
            capture_trace=capture_trace,
            grad_metric="full",
        )
        trace = None
        if capture_trace:
            eta_col = tr_eta[:, i, 0]
            trace = TrialTrace(
                alpha=tr_alpha,
                eta_min=eta_col,
                eta_max=eta_col,
                eta_l2=np.sqrt(eta_col * eta_col),
                alpha_eff=tr_alpha_eff[:, i, 0],
                grad_norm_sq=tr_gs[:, i, 0],
            )
        records.append(
            TrialRecord(
                config=cfg,
                status=STATUS_FINISHED,
                steps_done=T,
                w_mean=float(w_sum[i, 0]) / T,
                grad_norm_sq_mean=float(gs_sum[i, 0]) / T,
                z_weight_sum=float(z_sum[i, 0]),
                grad_metric_exact=True,
                w_final=w[i].copy(),
                rows=rows[:row_idx, :, i, 0].copy(),
                trace=trace,
            )
        )
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
