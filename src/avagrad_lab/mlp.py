"""A small tanh MLP classifier with hand-derived backprop, and its datasets.

MlpProblem keeps the contract of problems.StochasticProblem: a token is the
row indices of one minibatch, drawn without replacement, and the gradient,
loss and dataset metrics take one weight vector or lanes of them. The
problem and its datasets live apart from the other problems, so that only a
command that builds an MLP, or scores a sweep on a holdout set, loads them.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Frozen, RngStream, lane_draws
from .problems import StochasticProblem, _per_lane


class LabeledSet(Frozen):
    """Dense feature matrix (n, n_in) with integer class labels (n,)."""

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        if features.ndim != 2 or labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels length mismatch")
        if features.shape[0] < 1:
            raise ValueError("dataset is empty")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
        vars(self).update(features=features, labels=labels)

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

    sample = StochasticProblem.sample  # on the class itself, for perfbench's tracer to patch

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
