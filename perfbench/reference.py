"""Fixed calibration work for the end-to-end timings: a fresh interpreter that
imports numpy and runs an Adam-like loop of small-array operations, the same
kind of work the measured commands do. It never changes with the program, so
its wall time tracks only how fast the machine is running at that moment.
"""

import math

import numpy as np

x = np.linspace(0.5, 2.0, 10)
m = np.zeros(10)
v = np.zeros(10)
total = 0.0
for t in range(1, 6001):
    g = x * (1.0 + 1e-4 * t)
    m = 0.9 * m + 0.1 * g
    v = 0.999 * v + 0.001 * (g * g)
    eta = 1.0 / (np.sqrt(v) + 1e-8)
    total += float(np.min(eta)) + math.sqrt(t)
if not math.isfinite(total):
    raise SystemExit("reference loop produced a non-finite value")
