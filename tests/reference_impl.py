"""Independent scalar reference for the optimizer updates, and the plain
formulas of the MLP oracle.

The optimizer reference is written straight from the update recursions using
plain Python floats and math.sqrt, with no dependency on the package under
test. Deliberately naive: coordinate loops, list-of-float state, no
vectorisation. Used as the oracle for the step-equivalence tests.

The mlp_* functions are MlpProblem's forward pass, gradient and dataset
metrics as plain numpy formulas: fancy-indexed gathers, a one-hot compare
per call and logits.max. The oracle's rewrites must give their bits.
"""

import math

import numpy as np


def sched(kind, base, t):
    if kind == "constant":
        return base
    if kind == "inverse_sqrt":
        return base / math.sqrt(t)
    if kind == "inverse_t":
        return 1.0 - 1.0 / t
    raise ValueError(kind)


class RefOptimizer:
    """State machine mirroring the published update rules, one float at a time."""

    def __init__(self, method, d, alpha=("constant", 0.001), epsilon=1e-8,
                 beta1=("constant", 0.9), beta2=("constant", 0.999),
                 weight_decay=0.0, decay_mode="none"):
        self.method = method
        self.d = d
        self.alpha = alpha
        self.epsilon = epsilon
        self.beta1 = beta1
        self.beta2 = beta2
        self.weight_decay = weight_decay
        self.decay_mode = decay_mode
        self.m = [0.0] * d
        self.v = [0.0] * d
        self.v_hat = [0.0] * d
        self.t = 0

    def step(self, w, g):
        self.t += 1
        t = self.t
        d = self.d
        a = sched(self.alpha[0], self.alpha[1], t)
        b1 = sched(self.beta1[0], self.beta1[1], t)
        b2 = sched(self.beta2[0], self.beta2[1], t)
        eps = self.epsilon
        lam = self.weight_decay
        mode = self.decay_mode
        if self.method in ("adamw", "avagradw"):
            mode = "decoupled"

        if mode == "coupled_l2" and lam > 0.0:
            g = [g[i] + lam * w[i] for i in range(d)]

        method = self.method
        if method == "sgd":
            w_next = [w[i] - a * g[i] for i in range(d)]
        elif method == "momentum_sgd":
            self.m = [b1 * self.m[i] + (1.0 - b1) * g[i] for i in range(d)]
            w_next = [w[i] - a * self.m[i] for i in range(d)]
        elif method in ("adam", "adamw", "amsgrad"):
            self.m = [b1 * self.m[i] + (1.0 - b1) * g[i] for i in range(d)]
            self.v = [b2 * self.v[i] + (1.0 - b2) * g[i] * g[i] for i in range(d)]
            if method == "amsgrad":
                self.v_hat = [max(self.v_hat[i], self.v[i]) for i in range(d)]
                eta = [1.0 / (math.sqrt(self.v_hat[i]) + eps) for i in range(d)]
            else:
                eta = [1.0 / (math.sqrt(self.v[i]) + eps) for i in range(d)]
            w_next = [w[i] - a * (eta[i] * self.m[i]) for i in range(d)]
        elif method in ("delayed_adam", "avagrad", "avagradw"):
            self.m = [b1 * self.m[i] + (1.0 - b1) * g[i] for i in range(d)]
            eta = [1.0 / (math.sqrt(self.v[i]) + eps) for i in range(d)]
            if method == "delayed_adam":
                w_next = [w[i] - a * (eta[i] * self.m[i]) for i in range(d)]
            else:
                norm = math.sqrt(sum(e * e for e in eta)) / math.sqrt(d)
                w_next = [w[i] - a * ((eta[i] / norm) * self.m[i]) for i in range(d)]
            self.v = [b2 * self.v[i] + (1.0 - b2) * g[i] * g[i] for i in range(d)]
        else:
            raise ValueError(method)

        if mode == "decoupled" and lam > 0.0:
            w_next = [w_next[i] - (a * lam) * w[i] for i in range(d)]
        return w_next


def reference_bias_gap(big_c, delta, w, v, beta2, epsilon, t):
    """E_s[(eta_adam(s) - eta_delayed) * g_s] for the next step (t + 1) of a
    scalar state v on the two-outcome synth problem: the steep branch C w with
    probability p = (1 + delta) / (C + 1), else the constant -1."""
    p = (1.0 + delta) / (big_c + 1.0)
    b2 = sched(beta2[0], beta2[1], t + 1)
    eta_ref = 1.0 / (math.sqrt(v) + epsilon)
    gap = 0.0
    for prob, g in ((p, big_c * w), (1.0 - p, -1.0)):
        v_s = b2 * v + (1.0 - b2) * (g * g)
        gap = gap + prob * ((1.0 / (math.sqrt(v_s) + epsilon) - eta_ref) * g)
    return gap


def mlp_unpack(w, n_in, h, k):
    """w1 (..., n_in, h), b1 (..., 1, h), w2 (..., h, k), b2 (..., 1, k) of
    flat weights w (..., dim)."""
    lanes = w.shape[:-1]
    i = 0
    w1 = w[..., i : i + n_in * h].reshape(lanes + (n_in, h))
    i += n_in * h
    b1 = w[..., None, i : i + h]
    i += h
    w2 = w[..., i : i + h * k].reshape(lanes + (h, k))
    i += h * k
    b2 = w[..., None, i : i + k]
    return w1, b1, w2, b2


def mlp_forward(w, x, dims):
    w1, b1, w2, b2 = mlp_unpack(w, *dims)
    hidden = np.tanh(x @ w1 + b1)
    logits = hidden @ w2 + b2
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.sum(np.exp(shifted), axis=-1))
    log_probs = shifted - log_norm[..., None]
    return hidden, log_probs


def mlp_grad(w, features, labels, token, dims):
    x = features[token]
    y = labels[token]
    w1, b1, w2, b2 = mlp_unpack(w, *dims)
    hidden, log_probs = mlp_forward(w, x, dims)
    g_logits = (np.exp(log_probs) - (y[..., None] == np.arange(dims[2]))) / x.shape[-2]
    g_w2 = hidden.swapaxes(-1, -2) @ g_logits
    g_b2 = g_logits.sum(axis=-2)
    g_hidden = g_logits @ w2.swapaxes(-1, -2)
    g_pre = g_hidden * (1.0 - hidden * hidden)
    g_w1 = x.swapaxes(-1, -2) @ g_pre
    g_b1 = g_pre.sum(axis=-2)
    flat = g_logits.shape[:-2] + (-1,)
    return np.concatenate([g_w1.reshape(flat), g_b1, g_w2.reshape(flat), g_b2], axis=-1)


def _mlp_per_lane(values, reduce):
    if values.ndim == 1:
        return float(reduce(values))
    return np.array([reduce(row) for row in values], dtype=np.float64)


def mlp_dataset_loss(w, features, labels, dims):
    _, log_probs = mlp_forward(w, features, dims)
    y = labels
    return _mlp_per_lane(log_probs[..., np.arange(len(y)), y], lambda r: -np.mean(r))


def mlp_dataset_error(w, features, labels, dims):
    _, log_probs = mlp_forward(w, features, dims)
    return _mlp_per_lane(np.argmax(log_probs, axis=-1) != labels, np.mean)
