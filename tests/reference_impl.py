"""Independent scalar reference for the optimizer updates.

Written straight from the update recursions using plain Python floats and
math.sqrt, with no dependency on the package under test. Deliberately naive:
coordinate loops, list-of-float state, no vectorisation. Used as the oracle
for the step-equivalence tests.
"""

import math


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
