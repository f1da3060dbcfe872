"""Trial execution and diagnostics.

A trial drives one optimizer over one stochastic problem, accumulating prefix
statistics (mean iterate, mean squared gradient norm, the rate-weighted mass
Z) at full resolution while logging CSV rows at a configurable stride. One
loop, run_trials, runs every trial: it advances n trials of one method that
differ only in w1, seed, alpha and epsilon in lock-step, as the (n, d) lanes
of optim.lane_update. run_trial is its one-lane case; run_synth_replicas runs
n seeded replicas of the scalar two-outcome benchmark for one method or
several, one batch per method, sweep.run_sweep runs blocks of grid cells, and
cli.cmd_run runs the seeds of one configuration. Each lane gets exactly the
record it would get alone.

A d = 1 SynthProblem batch with constant schedules, the shape of the
rare-event benchmark, runs its steps in _lanes.c instead, when a C compiler
is at hand (_lanes.kernel): a compiled copy of this loop and of
optim.lane_update at d = 1, checked bit for bit against them, which stay
the spec. The numpy loop still runs each step at which a lane diverges.

On top of the records sit the diagnostics: iterate_distribution (step weights
proportional to alpha_t * min_i eta_{t,i}), eval_bound (empirical check of the
square-root-rate guarantee in its conditional, momentum, and unconditional
forms), and bias_gap (the exact expectation gap between sample-coupled and
delayed rates on finite-outcome problems).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .core import Frozen, NonFiniteError, RngStream, clamp_box, mix_seed, schedule_eval, write_csv
from . import _lanes
from .optim import (ADAPTIVE_METHODS, DELAYED_METHODS, FORCED_DECOUPLED, NORMALIZED_METHODS,
                    DecayMode, HyperParams, Method, OptimizerState, lane_norm, lane_norm_sq,
                    lane_update)
from .optim import init_state, step  # noqa: F401  (perfbench/tracer.py wraps these names)
from .problems import ProblemConstants, StochasticProblem, SynthProblem

ROW_COLUMNS = ("t", "w_mean", "grad_norm_sq_mean", "alpha_t", "eta_min", "eta_l2", "alpha_eff")

GRAD_METRICS = ("full", "batch", "none")

#: the scale of a random start w1 ~ N(0, INIT_SCALE^2): an MLP run's, a sweep cell's
INIT_SCALE = 0.1

STATUS_FINISHED = "finished"
STATUS_CONVERGED = "converged"
STATUS_DIVERGED = "diverged"


class TrialConfig:
    """Everything needed to reproduce one trial bit-for-bit. capture_trace None
    keeps a trace when record_every == 1; grad_metric is full, batch or none."""

    def __init__(self, method: Method, hp: HyperParams, problem: StochasticProblem, T: int,
                 w1: np.ndarray, seed: int, record_every: int = 1,
                 capture_trace: bool | None = None, grad_metric: str = "full",
                 converge_tol: float | None = None):
        vars(self).update(method=Method(method), hp=hp, problem=problem, T=T, w1=w1, seed=seed,
                          record_every=record_every, capture_trace=capture_trace,
                          grad_metric=grad_metric, converge_tol=converge_tol)


class TrialTrace:
    """Full-resolution per-step series (one entry per completed step)."""

    def __init__(self, alpha: np.ndarray, eta_min: np.ndarray, eta_max: np.ndarray,
                 eta_l2: np.ndarray, alpha_eff: np.ndarray, grad_norm_sq: np.ndarray):
        vars(self).update(alpha=alpha, eta_min=eta_min, eta_max=eta_max, eta_l2=eta_l2,
                          alpha_eff=alpha_eff, grad_norm_sq=grad_norm_sq)


class TrialRecord:
    """Outcome of one trial: final prefix statistics, strided rows (n_rows, 7),
    with columns per ROW_COLUMNS, and the optional trace."""

    def __init__(self, config: TrialConfig, status: str, steps_done: int, w_mean: float,
                 grad_norm_sq_mean: float, z_weight_sum: float, grad_metric_exact: bool,
                 w_final: np.ndarray, rows: np.ndarray, trace: TrialTrace | None = None):
        vars(self).update(config=config, status=status, steps_done=steps_done, w_mean=w_mean,
                          grad_norm_sq_mean=grad_norm_sq_mean, z_weight_sum=z_weight_sum,
                          grad_metric_exact=grad_metric_exact, w_final=w_final, rows=rows,
                          trace=trace)


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Execute one trial; divergence stops early and keeps the partial statistics."""
    return run_trials([cfg])[0]


def run_synth_replicas(
    problem: SynthProblem,
    method: Method | Sequence[Method],
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
    and it gets exactly that trial's record, divergence included. Given a
    sequence of methods, the n replicas of each run as one batch, and the
    records come method by method.
    """
    methods = [method] if isinstance(method, str) else list(method)
    if not isinstance(problem, SynthProblem):
        raise ValueError("replicas only support the scalar two-outcome benchmark")
    if n_replicas < 1:
        raise ValueError("n_replicas must be >= 1")
    if not methods:
        raise ValueError("replicas need at least one method")
    return [record for m in methods for record in run_trials([TrialConfig(
        method=m, hp=hp, problem=problem, T=T, w1=np.array([float(w1)]),
        seed=mix_seed(base_seed, i), record_every=record_every,
        capture_trace=capture_trace, grad_metric="full") for i in range(n_replicas)])]


def _shared_settings(cfg: TrialConfig) -> tuple:
    """What every lane of one batch must share: all of a config but w1, seed,
    the alpha schedule's base and epsilon."""
    hp = cfg.hp
    return (cfg.method, cfg.problem, cfg.T, cfg.record_every, cfg.capture_trace,
            cfg.grad_metric, cfg.converge_tol, hp.alpha.kind, hp.beta1, hp.beta2,
            hp.weight_decay, hp.decay_mode)


_KERNEL_STATE = 12  # NSTATE of _lanes.c: alpha, eps, w, m, v, v_hat, the sums, eta, ...


def _kernel_settings(cfg: TrialConfig, grad_metric: str,
                     want_trace: bool) -> tuple[np.ndarray, int]:
    """The par array and flags of a _lanes.c call: lane_update's branches at d = 1."""
    hp, method, problem = cfg.hp, cfg.method, cfg.problem
    mode = DecayMode.DECOUPLED if method in FORCED_DECOUPLED else hp.decay_mode
    decay = hp.weight_decay > 0.0
    flags = sum(bit for bit, on in (  # the F_ bits of _lanes.c, in order
        (1, method is not Method.SGD),
        (2, method in ADAPTIVE_METHODS),
        (4, method in NORMALIZED_METHODS),
        (8, decay and mode is DecayMode.COUPLED_L2),
        (16, decay and mode is DecayMode.DECOUPLED),
        (32, method is Method.AMSGRAD),
        (64, grad_metric == "full"),
        (128, grad_metric == "batch"),
        (256, want_trace),
        (512, method in DELAYED_METHODS)) if on)
    b1, b2 = hp.beta1.base, hp.beta2.base
    par = np.array([problem.big_c, problem.mean_slope, problem.mean_offset, *problem.box,
                    b1, 1.0 - b1, b2, 1.0 - b2, hp.weight_decay])
    return par, flags


def run_trials(cfgs: list[TrialConfig]) -> list[TrialRecord]:
    """Run trials of one method that differ only in w1, seed, alpha base and
    epsilon in lock-step, as the (n, d) lanes of optim.lane_update, and give
    each the record it would get alone.

    Each lane draws its tokens from its own stream, in chunks that one
    problem.sample_lanes call draws for all lanes: Philox is counter-based,
    so a chunk of k draws equals k single draws. A lane whose gradient
    metric, gradient, iterate, buffers or running sums turn non-finite at
    step t leaves the batch there, diverged, with the statistics of the steps
    before.

    A d = 1 SynthProblem batch with constant schedules hands each chunk to
    _lanes.c, which works in the same state, row and trace arrays and stops
    before a step at which some lane's check below fails. This loop then
    runs that one step, so divergence is handled here alone, and hands back.
    """
    if not cfgs:
        return []
    cfg = cfgs[0]
    problem, hp, T, every = cfg.problem, cfg.hp, cfg.T, cfg.record_every
    method, d = cfg.method, problem.dim
    if T < 1:
        raise ValueError("T must be >= 1")
    if every < 1:
        raise ValueError("record_every must be >= 1")
    if cfg.grad_metric not in GRAD_METRICS:
        raise ValueError(f"grad_metric must be one of {GRAD_METRICS}")
    shared = _shared_settings(cfg)
    for c in cfgs:
        if np.shape(c.w1) != (d,):
            raise ValueError(f"w1 has shape {np.shape(c.w1)}, problem dimension is {d}")
        if _shared_settings(c) != shared:
            raise ValueError("lanes may differ only in w1, seed, alpha base and epsilon")
    w = np.array([c.w1 for c in cfgs], dtype=np.float64)
    grad_metric = cfg.grad_metric
    if grad_metric == "full" and problem.full_grad(w[0]) is None:
        grad_metric = "batch"  # no exact expectation available; fall back, flag it
    want_trace = every == 1 if cfg.capture_trace is None else cfg.capture_trace
    lam = hp.weight_decay
    # alpha's base and epsilon may differ per lane; the rest of hp is shared
    alpha_base = np.array([[c.hp.alpha.base] for c in cfgs], dtype=np.float64)
    eps = np.array([[c.hp.epsilon] for c in cfgs], dtype=np.float64)
    varying = any(s.kind != "constant" for s in (hp.alpha, hp.beta1, hp.beta2))
    alpha, b1, b2 = alpha_base, hp.beta1.base, hp.beta2.base  # if varying, set per step

    # Lane state. Per-lane scalars are (n, 1) columns, like avagrad's alpha_eff;
    # the lane axis is 0, except in tokens (1) and the row and trace buffers (2).
    # A diverged lane is dropped from all of them.
    n = len(cfgs)
    ids = np.arange(n)
    streams = [RngStream(c.seed) for c in cfgs]
    m, v = np.zeros((n, d)), np.zeros((n, d))
    v_hat = np.zeros((n, d)) if method is Method.AMSGRAD else None
    w_sum, z_sum = np.zeros((n, 1)), np.zeros((n, 1))
    gs_sum = np.full((n, 1), math.nan if grad_metric == "none" else 0.0)  # no metric, no mean
    gs_sum_t = None  # gs_sum with this step's term; stays None without a metric
    rows, n_rows = np.empty((T // every + (T % every > 0), len(ROW_COLUMNS), n, 1)), 0
    tr = np.empty((6, T, n, 1)) if want_trace else None  # the TrialTrace fields, in order
    eta = eta_min = alpha_eff = None  # of the last completed step
    gs = math.nan
    records: list[TrialRecord | None] = [None] * n

    def put_row(out, t: int, alpha, eta_l2) -> None:  # row t of every lane: out[j] is (n, 1)
        for j, val in enumerate((t, w_sum / t, gs_sum / t, alpha, eta_min, eta_l2, alpha_eff)):
            out[j] = val

    def record(p: int, status: str, done: int, flushed=None) -> TrialRecord:
        # The rows and trace of a lane that ran all T steps are views of the final
        # buffers. A diverged lane's are copied out, its rows with its flushed final
        # row, so that it does not keep alive the buffers compaction replaces.
        lane_rows = rows[:n_rows, :, p, 0]
        lane_trace = tr[:, :done, p, 0] if want_trace else None
        if flushed is not None:
            lane_rows = np.concatenate((lane_rows, flushed))
            lane_trace = lane_trace.copy() if want_trace else None
        return TrialRecord(
            config=cfgs[ids[p]],
            status=status,
            steps_done=done,
            w_mean=float(w_sum[p, 0]) / done if done else math.nan,
            grad_norm_sq_mean=float(gs_sum[p, 0]) / done if done else math.nan,
            z_weight_sum=float(z_sum[p, 0]),
            grad_metric_exact=(grad_metric == "full"),
            w_final=w[p].copy(),
            rows=lane_rows,
            trace=TrialTrace(*lane_trace) if want_trace else None,
        )

    kernel = _lanes.kernel() if d == 1 and type(problem) is SynthProblem and not varying else None
    if kernel is not None:
        par, flags = _kernel_settings(cfg, grad_metric, want_trace)
    span = max(1, 65536 // (n * problem.draw_size))  # steps drawn ahead, <= 65536 scalars
    t, k = 1, span
    with np.errstate(over="ignore", invalid="ignore"):
        while t <= T:
            if k == span:  # tokens[k, p] is lane p's draw for the k-th step of the chunk
                span, k = min(span, T - t + 1), 0
                tokens = problem.sample_lanes(streams, span)
            if kernel is not None:  # the rest of the chunk, up to a step where a lane fails
                st = np.empty((_KERNEL_STATE, len(ids), 1))
                for row, val in zip(st, (alpha, eps, w, m, v, v_hat, w_sum, gs_sum, z_sum, eta,
                                         alpha_eff, gs)):
                    row[...] = math.nan if val is None else val
                # (the arrays are named: the call gets bare addresses)
                scratch = np.empty(st.shape)
                clock = np.array([t, T, every, n_rows], dtype=np.int64)
                if not (tokens.dtype == np.bool_ and tokens.shape[1:] == (len(ids), 1) and all(
                        a is None or a.flags.c_contiguous for a in (tokens, rows, tr))):
                    raise RuntimeError("_lanes.c needs C-contiguous buffers of n lanes")
                ran = kernel(len(ids), span - k, tokens[k:].ctypes.data, st.ctypes.data,
                             scratch.ctypes.data, par.ctypes.data, flags, clock.ctypes.data,
                             rows.ctypes.data, None if tr is None else tr.ctypes.data)
                w, m, v, vh, w_sum, gs_sum, z_sum, eta, alpha_eff, gs_k = st[2:]
                v_hat, eta_min = None if v_hat is None else vh, eta
                gs = gs if grad_metric == "none" else gs_k
                t, k, n_rows = t + ran, k + ran, int(clock[3])
                if k == span:
                    continue
            if varying:
                alpha = schedule_eval(hp.alpha, t, alpha_base)
                b1, b2 = schedule_eval(hp.beta1, t), schedule_eval(hp.beta2, t)
            while True:  # once, unless a lane diverges: then again without it
                g = problem.grad(w, tokens[k])
                # the running sums with this step's terms, screened with the step; the
                # mean is np.mean's, bit for bit, and the squared norm lane_norm_sq's
                w_sum_t = sums = w_sum + np.add.reduce(w, axis=-1, keepdims=True) / d
                if grad_metric != "none":
                    gs = lane_norm_sq(problem.full_grad(w) if grad_metric == "full" else g)
                    gs_sum_t = gs_sum + gs
                    sums = w_sum_t * gs_sum_t
                w_next, m_next, v_next, v_hat_next, eta_t, alpha_eff_t = lane_update(
                    method, hp.decay_mode, w, m, v, v_hat, g, alpha, b1, b2, eps, lam)
                eta_min_t = np.minimum.reduce(eta_t, axis=-1, keepdims=True)
                z_sum_t = z_sum + alpha * eta_min_t
                # A sum of products is finite only if every factor is, and a finite
                # running sum plus a term only if the term is. A non-finite g or
                # m_next makes w_next non-finite (1 - b1 and 1 - b2 are > 0), and
                # v_hat_next is finite when v_next is, so this screen is sound.
                screen = np.vdot(w_next * (sums * z_sum_t), v_next)
                if math.isfinite(screen):
                    break
                ok = np.logical_and.reduce([np.isfinite(a).all(axis=-1) for a in (
                    w_sum_t, gs_sum_t, z_sum_t, g, w_next, m_next, v_next, v_hat_next)
                    if isinstance(a, np.ndarray)])
                if ok.all():
                    break
                done = t - 1
                last = np.empty((min(done % every, 1), len(ROW_COLUMNS), len(ids), 1))
                if len(last):  # the final row is always flushed, whatever the stride
                    alpha_done = schedule_eval(hp.alpha, done, alpha_base)
                    put_row(last[0], done, alpha_done, lane_norm(eta))
                for p in np.flatnonzero(~ok):
                    records[ids[p]] = record(p, STATUS_DIVERGED, done, last[:, :, p, 0])
                keep = np.flatnonzero(ok)
                streams = [streams[p] for p in keep]
                # np.take keeps them C-contiguous (a[:, keep] may not), as _lanes.c needs
                tokens, rows = np.take(tokens, keep, axis=1), np.take(rows, keep, axis=2)
                tr = np.take(tr, keep, axis=2) if want_trace else None
                lane_state = (ids, w, m, v, v_hat, w_sum, gs_sum, z_sum, alpha, alpha_base, eps)
                ids, w, m, v, v_hat, w_sum, gs_sum, z_sum, alpha, alpha_base, eps = [
                    a[keep] if isinstance(a, np.ndarray) else a for a in lane_state]
                if not len(ids):
                    return records  # else the step is redone: the kept lanes were finite
            k += 1
            m, v, v_hat, eta, alpha_eff = m_next, v_next, v_hat_next, eta_t, alpha_eff_t
            w_sum, gs_sum = w_sum_t, gs_sum if gs_sum_t is None else gs_sum_t
            z_sum, eta_min = z_sum_t, eta_min_t
            row_due = t % every == 0 or t == T
            if want_trace or row_due:
                eta_l2 = lane_norm(eta)
            if want_trace:
                eta_max = np.maximum.reduce(eta, axis=-1, keepdims=True)
                for j, val in enumerate((alpha, eta_min, eta_max, eta_l2, alpha_eff, gs)):
                    tr[j, t - 1] = val
            if row_due:
                put_row(rows[n_rows], t, alpha, eta_l2)
                n_rows += 1
            w = w_next if problem.box is None else clamp_box(w_next, *problem.box)
            t += 1

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


def iterate_distribution(record: TrialRecord) -> np.ndarray:
    """Step weights p(t) proportional to alpha_t * min_i eta_{t,i}, summing to 1."""
    trace = _require_trace(record)
    weights = trace.alpha * trace.eta_min
    total = float(np.sum(weights))
    if not (total > 0.0 and math.isfinite(total)):
        raise ValueError("degenerate step weights; cannot normalise")
    return weights / total


BOUND_VARIANTS = ("conditional", "momentum", "unconditional")


class BoundReport(Frozen):
    """One evaluation of the rate bound: realised weighted gradient mass vs limit."""

    def __init__(self, variant: str, lhs: float, rhs: float, constants: ProblemConstants,
                 steps: int):
        vars(self).update(variant=variant, lhs=lhs, rhs=rhs, constants=constants, steps=steps)

    @property
    def ratio(self) -> float:
        return self.rhs / self.lhs if self.lhs > 0 else math.inf


def _beta1_is_zero(hp: HyperParams) -> bool:
    return hp.beta1.kind == "constant" and hp.beta1.base == 0.0


@np.errstate(over="ignore", invalid="ignore")
def eval_bound(record: TrialRecord, constants: ProblemConstants, variant: str) -> BoundReport:
    """Evaluate one variant of the convergence-rate bound on a finished trial;
    NonFiniteError if a side of it overflows float64.

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

    if method in NORMALIZED_METHODS:
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

    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFiniteError(f"the {variant} bound overflows float64")
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
    (rates including the current draw) generally is not. Both rates are
    lane_update's, with the outcomes' gradients as lanes.
    """
    if mode not in ("adam", "delayed"):
        raise ValueError("mode must be 'adam' or 'delayed'")
    outcomes = problem.outcomes()
    if outcomes is None:
        raise ValueError("bias_gap needs a problem with enumerable outcomes")
    g = np.array([problem.grad(w, token) for _, token in outcomes])
    b2 = schedule_eval(hp.beta2, state.t + 1)
    rated_as = Method.ADAM if mode == "adam" else Method.DELAYED_ADAM
    with np.errstate(over="ignore", invalid="ignore"):  # of the update, only eta is read
        eta_mode, eta_ref = (np.broadcast_to(lane_update(
            method, DecayMode.NONE, w, state.m, state.v, None, g, 1.0, 0.0, b2, hp.epsilon,
            0.0)[4], g.shape) for method in (rated_as, Method.DELAYED_ADAM))
    gap = np.zeros(problem.dim)
    for (prob_s, _), g_s, eta_s, ref_s in zip(outcomes, g, eta_mode, eta_ref):
        gap = gap + prob_s * ((eta_s - ref_s) * g_s)
    return gap


def export_trajectory(record: TrialRecord, path) -> None:
    """Write the strided rows as CSV with a fixed header; bytes are
    deterministic for a fixed seed (17 significant digit float format). The
    step column prints as an integer: '%.17g' % t == str(int(t)) for every
    integer-valued float t below 10^17."""
    write_csv(path, ROW_COLUMNS, record.rows, "trajectory")


def summary_line(record: TrialRecord) -> str:
    """Machine-parseable one-line trial summary."""
    return (
        f"status={record.status}"
        f" final_grad_norm_sq_mean={record.grad_norm_sq_mean:.17g}"
        f" Z={record.z_weight_sum:.17g}"
    )
