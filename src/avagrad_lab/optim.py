"""Optimizer family built around the update w_{t+1} = w_t - alpha_t * eta_t (*) m_t.

All methods share the momentum buffer m and (where adaptive) the second-moment
buffer v. They differ only in how the parameter-wise rates eta_t are formed:

  sgd / momentum_sgd   eta = 1
  adam / adamw         eta = 1 / (sqrt(v_t) + eps)       v_t includes g_t
  amsgrad              eta = 1 / (sqrt(vhat_t) + eps)    vhat = running max of v
  delayed_adam         eta = 1 / (sqrt(v_{t-1}) + eps)   v updated after the step
  avagrad / avagradw   delayed eta, then rescaled by sqrt(d) / ||eta||

The delayed variants make eta_t independent of the sample drawn at step t,
which removes the correlation between the rate and the current gradient.
No bias correction is applied to m or v anywhere: the state machine follows
the plain recursions with m_0 = v_0 = 0.

lane_update is the one definition of the update rules. The single exception
is _lanes.c, the runner's compiled loop for d = 1 synth batches: a copy of
lane_update at d = 1, operation for operation, which the tests check bit for
bit against it, and which runs the heavy rare-event trials over ten times
faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import NonFiniteError, Schedule, ensure_vector, schedule_eval


class Method(str, Enum):
    SGD = "sgd"
    MOMENTUM_SGD = "momentum_sgd"
    ADAM = "adam"
    AMSGRAD = "amsgrad"
    ADAMW = "adamw"
    DELAYED_ADAM = "delayed_adam"
    AVAGRAD = "avagrad"
    AVAGRADW = "avagradw"


class DecayMode(str, Enum):
    NONE = "none"
    COUPLED_L2 = "coupled_l2"
    DECOUPLED = "decoupled"


#: methods whose eta_t is computed from v_{t-1}, before v absorbs g_t
DELAYED_METHODS = frozenset({Method.DELAYED_ADAM, Method.AVAGRAD, Method.AVAGRADW})

#: methods that always apply decoupled weight decay, whatever hp.decay_mode says
_FORCED_DECOUPLED = frozenset({Method.ADAMW, Method.AVAGRADW})

#: methods that rescale the delayed rates by sqrt(d) / ||eta||
_NORMALIZED_METHODS = frozenset({Method.AVAGRAD, Method.AVAGRADW})


class DivergenceError(NonFiniteError):
    """A step produced NaN/inf in the iterate or a state buffer."""


def _validate_beta_schedule(s: Schedule, name: str) -> None:
    # constant and inverse_sqrt peak at t=1 (value = base); inverse_t stays in [0, 1)
    if s.kind in ("constant", "inverse_sqrt") and not (0.0 <= s.base < 1.0):
        raise ValueError(f"{name} must evaluate into [0, 1); got base {s.base}")


@dataclass(frozen=True)
class HyperParams:
    """Per-run optimizer settings.

    alpha is the global learning-rate schedule, epsilon the additive constant
    in the rate denominator (large epsilon suppresses adaptivity), beta1/beta2
    the momentum and second-moment schedules. decay_mode picks how
    weight_decay enters; adamw/avagradw force decoupled decay regardless.
    """

    alpha: Schedule
    epsilon: float
    beta1: Schedule = field(default_factory=lambda: Schedule.constant(0.9))
    beta2: Schedule = field(default_factory=lambda: Schedule.constant(0.999))
    weight_decay: float = 0.0
    decay_mode: DecayMode = DecayMode.NONE

    def __post_init__(self):
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be a positive finite float, got {self.epsilon}")
        if not (0.0 <= self.weight_decay < math.inf):  # nan > 0 is False: decay skipped
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.alpha.kind in ("constant", "inverse_sqrt") and not (self.alpha.base > 0.0):
            raise ValueError(f"alpha must be > 0, got base {self.alpha.base}")
        _validate_beta_schedule(self.beta1, "beta1")
        _validate_beta_schedule(self.beta2, "beta2")


@dataclass
class OptimizerState:
    """Buffers for one trial: m, v, and (amsgrad only) the running max of v.

    States are treated as immutable snapshots; step() returns a fresh one.
    t counts completed steps, so a state with t = k is about to take step k+1.
    """

    method: Method
    m: np.ndarray
    v: np.ndarray
    v_hat: np.ndarray | None
    t: int


@dataclass(frozen=True)
class StepReport:
    """Rates actually used by one step.

    eta is the raw parameter-wise rate vector (ones for the sgd variants);
    alpha_eff is the global multiplier really applied: alpha_t, except for
    avagrad where it is alpha_t * sqrt(d) / ||eta||.
    """

    eta: np.ndarray
    alpha_eff: float
    eta_min: float
    eta_l2: float


def init_state(method: Method, d: int) -> OptimizerState:
    """Zero-initialised buffers for a d-dimensional parameter vector."""
    method = Method(method)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    v_hat = np.zeros(d) if method is Method.AMSGRAD else None
    return OptimizerState(method=method, m=np.zeros(d), v=np.zeros(d), v_hat=v_hat, t=0)


def _scaled_norm(eta: np.ndarray) -> np.ndarray:
    """||eta / sqrt(d)|| of each lane (last axis), kept as a trailing axis of length 1."""
    # np.add.reduce is what np.sum runs, less its Python wrapper
    return np.sqrt(np.add.reduce(eta * eta, axis=-1, keepdims=True)) / math.sqrt(eta.shape[-1])


def lane_update(method: Method, decay_mode: DecayMode, w, m, v, v_hat, g,
                alpha, b1, b2, eps, lam):
    """One update of the shared recursion on lanes of shape (..., d).

    w, m, v, g (and v_hat for amsgrad; None otherwise) are arrays of one
    shape. b1, b2 and lam are this step's beta1, beta2 and weight decay,
    floats; alpha and eps are floats or (..., 1) columns of per-lane values.
    Returns (w_next, m_next, v_next, v_hat_next, eta, alpha_eff), where eta
    is the raw rate of each coordinate and alpha_eff is alpha, or for
    avagrad an array (..., 1) of alpha * sqrt(d) / ||eta||. Everything is
    coordinate-wise except that norm, taken per lane over the last axis. The
    caller opens np.errstate and checks finiteness: overflow is a divergence
    signal here.
    """
    if method in _FORCED_DECOUPLED:
        decay_mode = DecayMode.DECOUPLED
    if lam > 0.0 and decay_mode is DecayMode.COUPLED_L2:
        g = g + lam * w
    v_next, v_hat_next, alpha_eff = v, v_hat, alpha

    if method is Method.SGD:
        m_next = m
        eta = np.ones(w.shape)
        w_next = w - alpha * g
    elif method is Method.MOMENTUM_SGD:
        m_next = b1 * m + (1.0 - b1) * g
        eta = np.ones(w.shape)
        w_next = w - alpha * m_next
    else:
        m_next = b1 * m + (1.0 - b1) * g
        v_next = b2 * v + (1.0 - b2) * (g * g)
        if method in DELAYED_METHODS:  # rates from v_{t-1}, before v absorbs g_t
            eta = 1.0 / (np.sqrt(v) + eps)
        elif method is Method.AMSGRAD:
            v_hat_next = np.maximum(v_hat, v_next)
            eta = 1.0 / (np.sqrt(v_hat_next) + eps)
        else:
            eta = 1.0 / (np.sqrt(v_next) + eps)
        if method in _NORMALIZED_METHODS:
            scaled_norm = _scaled_norm(eta)
            w_next = w - alpha * ((eta / scaled_norm) * m_next)
            alpha_eff = alpha / scaled_norm
        else:
            w_next = w - alpha * (eta * m_next)

    if lam > 0.0 and decay_mode is DecayMode.DECOUPLED:
        w_next = w_next - (alpha * lam) * w
    return w_next, m_next, v_next, v_hat_next, eta, alpha_eff


def step(
    state: OptimizerState, hp: HyperParams, w: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, OptimizerState, StepReport]:
    """Advance one optimization step; returns (w_next, state_next, report).

    Raises DivergenceError when the produced iterate or buffers are
    non-finite (the caller decides whether that aborts the trial).
    """
    d = state.m.shape[0]
    if w.shape != (d,) or g.shape != (d,):
        raise ValueError(f"dimension mismatch: state d={d}, w {w.shape}, g {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DivergenceError("gradient contains NaN or infinity")

    t = state.t + 1
    method = state.method
    b1 = schedule_eval(hp.beta1, t)
    b2 = schedule_eval(hp.beta2, t)
    alpha = schedule_eval(hp.alpha, t)
    # overflow to inf is an expected divergence signal, caught below
    with np.errstate(over="ignore", invalid="ignore"):
        w_next, m_next, v_next, v_hat_next, eta, alpha_eff = lane_update(
            method, hp.decay_mode, w, state.m, state.v, state.v_hat, g,
            alpha, b1, b2, hp.epsilon, hp.weight_decay)

    ok = np.all(np.isfinite(w_next)) and np.all(np.isfinite(m_next)) and np.all(np.isfinite(v_next))
    if ok and v_hat_next is not None:
        ok = np.all(np.isfinite(v_hat_next))
    if not ok:
        raise DivergenceError(f"step {t} produced non-finite values ({method.value})")

    state_next = OptimizerState(method=method, m=m_next, v=v_next, v_hat=v_hat_next, t=t)
    report = StepReport(
        eta=eta,
        alpha_eff=np.asarray(alpha_eff).item(),
        eta_min=float(np.min(eta)),
        eta_l2=float(np.sqrt(np.sum(eta * eta))),
    )
    return w_next, state_next, report


def eta_bounds(hp: HyperParams, g2: float) -> tuple[float, float]:
    """Deterministic range of the delayed rates: 1/(G2+eps) <= eta_i <= 1/eps."""
    if g2 < 0.0:
        raise ValueError("g2 must be >= 0")
    if hp.epsilon <= 0.0:
        raise ValueError("epsilon must be > 0")
    return 1.0 / (g2 + hp.epsilon), 1.0 / hp.epsilon


def normalized_eta(eta) -> np.ndarray:
    """Rescale a positive rate vector so that ||result / sqrt(d)|| = 1.

    Invariant under uniform rescaling of eta, which is what makes the
    avagrad global step insensitive to the overall scale of the
    second-moment estimate. Accepts any positive vector (epsilon = 0
    analysis included), rejecting non-positive coordinates.
    """
    eta = ensure_vector(eta, "eta")
    if np.any(eta <= 0.0):
        raise ValueError("eta must be coordinate-wise positive")
    scaled_norm = _scaled_norm(eta)
    if scaled_norm[0] == 0.0:
        raise ValueError("eta has zero norm")
    return eta / scaled_norm
