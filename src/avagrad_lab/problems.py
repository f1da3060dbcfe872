"""Stochastic objectives: the two-outcome rare-event benchmark and noisy
quadratics. The small tanh MLP classifier, on the same contract, is in `mlp`.

Each problem exposes the same contract: sample(rng) draws an opaque token
(sample(rng, k) the next k tokens, stacked), grad(w, token) and loss(w, token)
are deterministic given the token, and full_grad(w) / objective(w) give the
exact expectation where one exists. grad, full_grad and objective also take
lanes: w of shape (n, d), with one stacked token per lane for grad, gives one
gradient or value per lane (as do the MLP's dataset metrics), and
sample_lanes(streams, k) draws the next k tokens of n lanes' streams as one
(k, n, ...) block. Problems are immutable after construction; all randomness
flows through the caller-provided RngStream.

A token is made from one draw: a uniform (synth) or a standard normal
vector (quadratic), passed through the problem's _tokens transform, or the
indices of numpy's Generator.choice without replacement (the MLP's
minibatch). sample makes the draws on one stream, and sample_lanes on all
lanes' streams in one core.lane_draws call.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Frozen, RngStream, ensure_vector, lane_draws


class ProblemConstants(Frozen):
    """Closed-form constants used by the convergence-bound evaluator.

    m_smooth bounds the gradient Lipschitz constant, d_gap the objective gap
    f(w1) - f(w*), and g_inf / g_2 bound the per-sample gradient norms over
    the problem domain. Fields are None when no closed form is available.
    """

    def __init__(self, m_smooth: float, d_gap: float, g_inf: float | None = None,
                 g_2: float | None = None):
        vars(self).update(m_smooth=m_smooth, d_gap=d_gap, g_inf=g_inf, g_2=g_2)
        for name, val in vars(self).items():
            if (val is not None or name in ("m_smooth", "d_gap")) and (
                    val < 0.0 or not math.isfinite(val)):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")


class StochasticProblem:
    """Base contract; concrete problems override the sampling and gradient oracle."""

    dim: int
    draw_size: int = 1  # scalars one sample draws from the stream
    box: tuple[float, float] | None = None  # coordinate bounds, or None if unconstrained

    def sample(self, rng: RngStream, size: int | None = None):
        raise NotImplementedError

    def sample_lanes(self, streams: list[RngStream], k: int) -> np.ndarray:
        """The next k tokens of each stream: tokens[i, p] is sample(streams[p])
        the i-th time it would be called. This default draws stream by stream;
        the problems here override it with one lane_draws call."""
        return np.stack([self.sample(rng, k) for rng in streams], axis=1)

    def grad(self, w: np.ndarray, token) -> np.ndarray:
        raise NotImplementedError

    def loss(self, w: np.ndarray, token) -> float:
        raise NotImplementedError

    def full_grad(self, w: np.ndarray) -> np.ndarray | None:
        """Exact expected gradient, or None when unavailable."""
        return None

    def objective(self, w: np.ndarray) -> float | np.ndarray | None:
        """Exact expected loss, or None when unavailable; for lanes w (n, d),
        one value per lane."""
        return None

    def outcomes(self) -> list[tuple[float, object]] | None:
        """(probability, token) pairs when the sample space is finite, else None."""
        return None

    def constants(self, w1: np.ndarray) -> ProblemConstants | None:
        """Bound constants given the start point, or None when unavailable."""
        return None


def _per_lane(values: np.ndarray, reduce):
    """float(reduce(values, axis=-1)) for 1-D `values`, else its value for each
    lane row of (n, m) `values`, from one call on a C-contiguous copy: numpy
    then adds each row in the order of a 1-D call. Only a reduction axis that
    is not contiguous, as in the Fortran-ordered array that fancy indexing
    makes of lanes' log-probs, would add in another order."""
    out = reduce(np.ascontiguousarray(values), axis=-1)
    return float(out) if values.ndim == 1 else out


#: what a sweep can score a final iterate by: the exact objective, or the
#: MLP's cross-entropy or error rate on a holdout set
METRICS = ("full_objective", "holdout_ce", "holdout_error")


RARE, COMMON = True, False  # a synth token: was the rare outcome drawn (a mask shaped like w)


class SynthProblem(StochasticProblem):
    """Scalar two-outcome objective on [0, 1]: a steep quadratic drawn rarely,
    a constant downhill pull otherwise.

    f_s(w) = C w^2 / 2 with probability p = (1 + delta) / (C + 1), else -w.
    The expectation p C w^2 / 2 - (1 - p) w has its stationary point at
    w* = (1 - p) / (C p), interior to the box. The rare draw carries a
    gradient up to C, so rate adaptation reacts strongly to it.
    """

    def __init__(self, big_c: float, delta: float):
        if not (big_c > 1.0):
            raise ValueError(f"C must be > 1, got {big_c}")
        if delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        p = (1.0 + delta) / (big_c + 1.0)
        if not (0.0 < p < 1.0):
            raise ValueError(f"derived rare probability p={p} outside (0, 1)")
        if not (big_c > (1.0 - p) / p):
            raise ValueError(
                f"C={big_c} too small for delta={delta}: need C > (1-p)/p = {(1.0 - p) / p}"
            )
        self.big_c = float(big_c)
        self.delta = float(delta)
        self.p = p
        self.mean_slope = p * self.big_c  # second derivative of the expectation
        self.mean_offset = 1.0 - p
        self.w_star = self.mean_offset / self.mean_slope
        self.dim = 1
        self.box = (0.0, 1.0)

    def _tokens(self, u):
        return u < self.p

    def sample(self, rng: RngStream, size: int | None = None):
        return self._tokens(rng.random(1 if size is None else (size, 1)))

    def sample_lanes(self, streams, k):
        return self._tokens(lane_draws(streams, "uniform", k, (1,)))

    def grad(self, w, token):
        return np.where(token, self.big_c * w, -1.0)

    def loss(self, w, token):
        if token:
            return float(self.big_c * 0.5 * w[0] * w[0])
        return float(-w[0])

    def full_grad(self, w):
        return self.mean_slope * w - self.mean_offset

    def objective(self, w):
        w0 = w[..., 0]
        f = 0.5 * self.mean_slope * w0 * w0 - self.mean_offset * w0
        return float(f) if w.ndim == 1 else f

    def outcomes(self):
        return [(self.p, RARE), (1.0 - self.p, COMMON)]

    def constants(self, w1):
        w1 = ensure_vector(w1, "w1")
        g_bound = max(self.big_c, 1.0)  # rare gradient peaks at C on [0, 1]
        return ProblemConstants(
            m_smooth=self.mean_slope,
            d_gap=self.objective(w1) - self.objective(np.array([self.w_star])),
            g_inf=g_bound,
            g_2=g_bound,
        )


synth_make = SynthProblem  # factory names, kept for the CLI, the demos and perfbench


class QuadraticProblem(StochasticProblem):
    """Separable quadratic with Gaussian-perturbed targets.

    f_s(w) = sum_i c_i (w_i - xi_i)^2 / 2 with xi drawn around a fixed
    minimiser, so the expected gradient c (*) (w - w*) is exact.
    """

    def __init__(self, curvatures, noise_std: float = 0.0, w_star=None):
        c = ensure_vector(curvatures, "curvatures")
        if np.any(c <= 0.0):
            raise ValueError("curvatures must be positive")
        if not (0.0 <= noise_std < math.inf):
            raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
        self.curvatures = c
        self.noise_std = float(noise_std)
        self.w_star = np.zeros(c.shape[0]) if w_star is None else ensure_vector(w_star, "w_star")
        if self.w_star.shape != c.shape:
            raise ValueError("w_star length must match curvatures")
        self.dim = self.draw_size = c.shape[0]

    def _tokens(self, z):
        return self.w_star + self.noise_std * z

    def sample(self, rng: RngStream, size: int | None = None):
        return self._tokens(rng.normal(self.dim if size is None else (size, self.dim)))

    def sample_lanes(self, streams, k):
        return self._tokens(lane_draws(streams, "normal", k, (self.dim,)))

    def grad(self, w, token):
        return self.curvatures * (w - token)

    def loss(self, w, token):
        with np.errstate(over="ignore"):  # a huge finite iterate has an infinite loss
            diff = w - token
            return float(0.5 * np.sum(self.curvatures * diff * diff))

    def full_grad(self, w):
        return self.curvatures * (w - self.w_star)

    def objective(self, w):
        spread = self.noise_std * self.noise_std
        with np.errstate(over="ignore"):  # a huge finite iterate has an infinite objective
            diff = w - self.w_star
            return _per_lane(self.curvatures * (diff * diff + spread),
                             lambda r, axis: 0.5 * np.sum(r, axis=axis))

    def constants(self, w1):
        w1 = ensure_vector(w1, "w1")
        return ProblemConstants(
            m_smooth=float(np.max(self.curvatures)),
            d_gap=self.objective(w1) - self.objective(self.w_star),
        )


quadratic_make = QuadraticProblem


def fd_check(problem: StochasticProblem, w, token, h: float = 1e-5) -> float:
    """Central-difference check of grad against loss; returns the worst mismatch.

    Differences are normalised by the largest gradient magnitude seen on
    either side, floored at 1e-8 so an all-zero gradient cannot blow up the
    ratio.
    """
    if h <= 0.0:
        raise ValueError("h must be > 0")
    w = ensure_vector(w, "w")
    g = problem.grad(w, token)
    fd = np.empty_like(g)
    for i in range(w.shape[0]):
        bump = np.zeros_like(w)
        bump[i] = h
        lo = problem.loss(w - bump, token)
        hi = problem.loss(w + bump, token)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("loss is non-finite near the evaluation point")
        fd[i] = (hi - lo) / (2.0 * h)
    scale = max(float(np.max(np.abs(g))), float(np.max(np.abs(fd))), 1e-8)
    return float(np.max(np.abs(fd - g)) / scale)


# perfbench/ still reaches the MLP's names here: layers.py imports gaussian_blobs
# and mlp_make from this module, and the tracer patches problems.MlpProblem.
def __getattr__(name):  # PEP 562: load them from `mlp` on first use
    if name in ("LabeledSet", "MlpProblem", "gaussian_blobs", "load_csv_dataset", "mlp_make"):
        from . import mlp
        return getattr(mlp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
