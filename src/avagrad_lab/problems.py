"""Stochastic objectives: the two-outcome rare-event benchmark, noisy quadratics,
and a small tanh MLP classifier with hand-derived backprop.

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
from dataclasses import dataclass

import numpy as np

from .core import RngStream, ensure_vector, lane_draws


@dataclass(frozen=True)
class ProblemConstants:
    """Closed-form constants used by the convergence-bound evaluator.

    m_smooth bounds the gradient Lipschitz constant, d_gap the objective gap
    f(w1) - f(w*), and g_inf / g_2 bound the per-sample gradient norms over
    the problem domain. Fields are None when no closed form is available.
    """

    m_smooth: float
    d_gap: float
    g_inf: float | None = None
    g_2: float | None = None

    def __post_init__(self):
        for name in ("m_smooth", "d_gap"):
            val = getattr(self, name)
            if val < 0.0 or not math.isfinite(val):
                raise ValueError(f"{name} must be finite and >= 0, got {val}")
        for name in ("g_inf", "g_2"):
            val = getattr(self, name)
            if val is not None and (val < 0.0 or not math.isfinite(val)):
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


@dataclass(frozen=True)
class LabeledSet:
    """Dense feature matrix (n, n_in) with integer class labels (n,)."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels length mismatch")
        if self.features.shape[0] < 1:
            raise ValueError("dataset is empty")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must have an integer dtype, got {self.labels.dtype}")

    def __len__(self):
        return self.labels.shape[0]


def gaussian_blobs(
    n_per_class: int, n_classes: int, n_in: int, separation: float, rng: RngStream
) -> LabeledSet:
    """Unit-covariance Gaussian clusters at radius `separation`.

    Class k sits in the fixed direction (cos, sin) of angle 2*pi*k/n_classes
    in the first two coordinates (first coordinate only when n_in == 1), so
    the layout is deterministic and only the noise comes from rng.
    """
    if n_per_class < 1 or n_classes < 1 or n_in < 1:
        raise ValueError("counts and dimensions must be >= 1")
    feats, labs = [], []
    for k in range(n_classes):
        theta = 2.0 * math.pi * k / n_classes
        center = np.zeros(n_in)
        center[0] = separation * math.cos(theta)
        if n_in > 1:
            center[1] = separation * math.sin(theta)
        feats.append(center + rng.normal((n_per_class, n_in)))
        labs.append(np.full(n_per_class, k, dtype=np.int64))
    return LabeledSet(np.concatenate(feats), np.concatenate(labs))


class MlpProblem(StochasticProblem):
    """Two-layer tanh perceptron with softmax cross-entropy, flattened weights.

    The parameter vector packs W1 (n_in, n_hidden), b1, W2 (n_hidden,
    n_classes), b2 in that order. Tokens are mini-batch index arrays drawn
    uniformly without replacement; gradients are exact backprop means over the
    batch, so grad over the full index range equals full_grad by construction.
    """

    def __init__(self, n_in: int, n_hidden: int, n_classes: int, dataset: LabeledSet,
                 batch_size: int = 16):
        if n_in < 1 or n_hidden < 1 or n_classes < 1:
            raise ValueError("network dimensions must be >= 1")
        if dataset.features.shape[1] != n_in:
            raise ValueError(
                f"dataset features have {dataset.features.shape[1]} columns, expected {n_in}"
            )
        if np.any(dataset.labels < 0) or np.any(dataset.labels >= n_classes):
            raise ValueError("dataset labels out of range")
        if not (1 <= batch_size <= len(dataset)):
            raise ValueError("batch_size must be in [1, len(dataset)]")
        self.n_in, self.n_hidden, self.n_classes = n_in, n_hidden, n_classes
        self.dataset = dataset
        self.batch_size = self.draw_size = batch_size
        self.dim = (n_in + 1) * n_hidden + (n_hidden + 1) * n_classes
        self._one_hot = (dataset.labels[:, None] == np.arange(n_classes)).astype(np.float64)
        # activation buffers are batch-major, (b, n, width), unless a width is
        # 1: then numpy's sum over b and its @ path depend on the layout
        self._axes = (0, 1, 2) if min(n_in, n_hidden, n_classes) == 1 else (1, 0, 2)

    def _unpack(self, w):
        """Per lane of w (n, dim) or (dim,): w1 (n, n_in, h), w2 (n, h, k), and
        contiguous copies of b1 (n, 1, h) and b2 (n, 1, k); 1 lane for (dim,)."""
        n_in, h, k = self.n_in, self.n_hidden, self.n_classes
        w = w.reshape(-1, self.dim)
        i = 0
        w1 = w[:, i : i + n_in * h].reshape(-1, n_in, h)
        i += n_in * h
        b1 = w[:, None, i : i + h].copy()
        i += h
        w2 = w[:, i : i + h * k].reshape(-1, h, k)
        i += h * k
        b2 = w[:, None, i : i + k].copy()
        return w1, b1, w2, b2

    def _buffer(self, n, b, width):
        """An (n, b, width) lane view of a new buffer laid out by _axes; its rows."""
        buf = np.empty(tuple((n, b, width)[a] for a in self._axes))
        return buf.transpose(self._axes), buf.reshape(-1, width)

    def _forward(self, weights, x):
        """Hidden activations and log-softmax of inputs x under _unpack's
        weights, as (n, b, .) views of batch-major (b, n, .) buffers, lane-major
        where a width of 1 makes numpy's path depend on the layout (_axes). Each
        @ is BLAS's gemm a lane through those views. Biases (contiguous copies
        broadcast over the b rows), the row max, the shift and the normalisation
        keep every bit; the softmax sum keeps numpy's order, which defines the
        bytes: a left-to-right chain of columns for k < 8, np.sum from 8 on."""
        w1, b1, w2, b2 = weights
        n, b = w1.shape[0], x.shape[-2]
        hidden, _ = self._buffer(n, b, self.n_hidden)
        np.matmul(x, w1, out=hidden)
        hidden += b1
        np.tanh(hidden, out=hidden)
        logits, rows = self._buffer(n, b, self.n_classes)
        np.matmul(hidden, w2, out=logits)
        logits += b2
        # the max of a tied zero row may take either sign; its two entries exp
        # to 1, so log_norm >= log 2 absorbs the sign
        top = rows[:, 0].copy()
        for col in rows.T[1:]:
            np.maximum(top, col, out=top)
        for col in rows.T:
            col -= top
        exps = np.exp(rows)
        log_norm = np.log(sum(exps.T[1:], exps[:, 0]) if self.n_classes < 8
                          else np.sum(exps, axis=-1))
        for col in rows.T:
            col -= log_norm
        return hidden, logits

    def sample(self, rng: RngStream, size: int | None = None):
        tokens = rng.choices(len(self.dataset), self.batch_size, 1 if size is None else size)
        return tokens[0] if size is None else tokens

    def sample_lanes(self, streams, k):
        return lane_draws(streams, "choice", k, (self.batch_size,), len(self.dataset))

    def loss(self, w, token):
        return self.dataset_loss(w, LabeledSet(self.dataset.features.take(token, axis=0),
                                               self.dataset.labels.take(token, axis=0)))

    def grad(self, w, token):
        """Mean backprop gradient over the minibatch rows `token`, per lane. A
        batch sum adds the batch-major rows in turn, numpy's order over the batch
        axis of width > 1; width-1 buffers stay lane-major and sum pairwise."""
        x = self.dataset.features.take(token, axis=0)
        weights = self._unpack(w)
        hidden, g_logits = self._forward(weights, x)
        # softmax minus the one-hot labels (gathered in the buffer's layout),
        # averaged over the batch
        np.exp(g_logits, out=g_logits)
        index = np.broadcast_to(token, g_logits.shape[:2]).transpose(self._axes[:2])
        g_logits -= self._one_hot.take(index, axis=0).transpose(self._axes)
        g_logits /= x.shape[-2]
        g_w2 = hidden.swapaxes(-1, -2) @ g_logits
        g_b2 = g_logits.sum(axis=-2)
        g_pre, _ = self._buffer(*hidden.shape)
        np.matmul(g_logits, weights[2].swapaxes(-1, -2), out=g_pre)
        np.multiply(hidden, hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        g_pre *= hidden
        g_w1 = x.swapaxes(-1, -2) @ g_pre
        g_b1 = g_pre.sum(axis=-2)
        flat = (len(g_b1), -1)
        return np.concatenate([g_w1.reshape(flat), g_b1, g_w2.reshape(flat), g_b2],
                              axis=-1).reshape(w.shape)

    def full_grad(self, w):
        return self.grad(w, np.arange(len(self.dataset)))

    def objective(self, w):
        return self.dataset_loss(w, self.dataset)

    def dataset_loss(self, w, dataset: LabeledSet):
        """Mean cross-entropy of the network on an arbitrary labelled set; for
        lanes w (n, dim), one value per lane."""
        _, log_probs = self._forward(self._unpack(w), dataset.features)
        picked = log_probs[:, np.arange(len(dataset)), dataset.labels]
        picked = picked.reshape(w.shape[:-1] + (-1,))
        return _per_lane(picked, lambda r, axis: -np.mean(r, axis=axis))

    def dataset_error(self, w, dataset: LabeledSet):
        """Misclassification rate of the argmax prediction on a labelled set;
        for lanes w (n, dim), one value per lane."""
        _, log_probs = self._forward(self._unpack(w), dataset.features)
        wrong = np.argmax(log_probs, axis=-1) != dataset.labels
        return _per_lane(wrong.reshape(w.shape[:-1] + (-1,)), np.mean)


mlp_make = MlpProblem


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


def load_csv_dataset(path, n_in: int, n_classes: int) -> LabeledSet:
    """Parse `f1,...,f_{n_in},label` lines (no header, LF or CRLF) into a LabeledSet."""
    feats, labs = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != n_in + 1:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_in + 1} fields, got {len(parts)}"
                )
            try:
                row = [float(v) for v in parts[:-1]]
                label = int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}: line {lineno}: features must be finite")
            if not (0 <= label < n_classes):
                raise ValueError(
                    f"{path}: line {lineno}: label {label} outside [0, {n_classes})"
                )
            feats.append(row)
            labs.append(label)
    if not feats:
        raise ValueError(f"{path}: dataset is empty")
    return LabeledSet(np.asarray(feats, dtype=np.float64), np.asarray(labs, dtype=np.int64))
