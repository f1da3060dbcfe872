"""Shared numeric primitives: dense float64 vectors, scalar schedules, seeded RNG streams.

Everything downstream (optimizers, problems, trial runner, sweeps) works in
terms of float64 numpy arrays, 1-D vectors or lanes of shape (n, d); this
module holds the vector input check and box projection, the schedule
evaluator, and the deterministic RNG contract used to derive independent
per-trial streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class NonFiniteError(ArithmeticError):
    """A numeric operation produced NaN or infinity."""


def ensure_vector(data, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one element")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or infinity")
    return arr


def clamp_box(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Euclidean projection of each lane (..., d) onto the box [lo, hi]^d."""
    if lo > hi:
        raise ValueError(f"clamp bounds out of order: lo={lo} > hi={hi}")
    return np.asarray(a).clip(lo, hi)  # np.clip, less its dispatch


SCHEDULE_KINDS = ("constant", "inverse_sqrt", "inverse_t")


@dataclass(frozen=True)
class Schedule:
    """Scalar step-indexed schedule.

    constant     -> base
    inverse_sqrt -> base / sqrt(t)
    inverse_t    -> 1 - 1/t   (base unused)
    """

    kind: str
    base: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not math.isfinite(self.base):
            raise ValueError("schedule base must be finite")

    @classmethod
    def constant(cls, base: float) -> "Schedule":
        return cls("constant", base)

    @classmethod
    def inverse_sqrt(cls, base: float) -> "Schedule":
        return cls("inverse_sqrt", base)

    @classmethod
    def inverse_t(cls) -> "Schedule":
        return cls("inverse_t")


def schedule_eval(s: Schedule, t: int) -> float:
    """Evaluate a schedule at step index t >= 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if s.kind == "constant":
        return s.base
    if s.kind == "inverse_sqrt":
        return s.base / math.sqrt(t)
    return 1.0 - 1.0 / t


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(base_seed: int, *indices: int) -> int:
    """Derive a child seed from (base_seed, i1, i2, ...).

    The mixing is a splitmix64 chain, so derived seeds depend only on the
    identity tuple: sweeps and multi-seed runs are order-independent.
    """
    state = _splitmix64(base_seed & _MASK64)
    for idx in indices:
        state = _splitmix64(state ^ (idx & _MASK64))
    return state


class RngStream:
    """Deterministic random stream with reproducible child derivation.

    Backed by the counter-based Philox generator keyed directly by the
    64-bit seed: the same seed replays the identical draw sequence on any
    platform. Child streams come from ``derive`` via :func:`mix_seed`.
    Instances are single-owner; never share one across threads.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def derive(self, *indices: int) -> "RngStream":
        return RngStream(mix_seed(self.seed, *indices))

    def random(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high=high, size=size)

    def choice(self, n: int, size: int, replace: bool = False):
        return self._gen.choice(n, size=size, replace=replace)
