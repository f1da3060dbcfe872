"""Shared numeric primitives: dense float64 vectors, scalar schedules, seeded RNG streams.

Everything downstream (optimizers, problems, trial runner, sweeps) works in
terms of float64 numpy arrays, 1-D vectors or lanes of shape (n, d); this
module holds the vector input check and box projection, the schedule
evaluator, the deterministic RNG contract used to derive independent
per-trial streams (seeds mixed from ints or uint64 arrays; uniform draws
through the compiled Philox of _lanes.c, the others through a scratch numpy
Philox engine per thread, loaded with the stream's own state), and the CSV
writer every output file goes through.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _lanes

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


def write_csv(path, header, rows, what: str) -> None:
    """Write a header and rows as LF-terminated UTF-8 CSV. Floats print with 17
    significant digits, so the bytes are fixed for a fixed seed; other fields
    print with str()."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join([f"{v:.17g}" if isinstance(v, float) else str(v)
                                   for v in row]) + "\n")
    except OSError as exc:
        raise OSError(f"writing {what} to {path}: {exc}") from exc


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


def schedule_eval(s: Schedule, t: int, base=None):
    """Evaluate a schedule at step index t >= 1.

    `base`, when given, stands in for s.base: an (n, 1) column of per-lane
    bases gives a column of values, each equal to its own schedule's.
    """
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    if base is None:
        base = s.base
    if s.kind == "constant":
        return base
    if s.kind == "inverse_sqrt":
        return base / math.sqrt(t)
    return 1.0 - 1.0 / t


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(base_seed, *indices):
    """Derive a child seed from (base_seed, i1, i2, ...).

    The mixing is a splitmix64 chain, so derived seeds depend only on the
    identity tuple: sweeps and multi-seed runs are order-independent. Any
    argument may also be a uint64 array, which derives one seed per element
    with the same bits as the int calls; int64 arrays do not work (the 64-bit
    mask overflows them), and neither do 0-d numpy scalars, which warn when
    the arithmetic wraps.
    """
    state = _splitmix64(base_seed & _MASK64)
    for idx in indices:
        state = _splitmix64(state ^ (idx & _MASK64))
    return state


_scratch = threading.local()  # each thread's Generator(Philox), made by its first numpy draw


class RngStream:
    """Deterministic random stream.

    Philox keyed directly by the 64-bit seed: the same seed replays the
    identical draw sequence on any platform. Independent streams take seeds
    from :func:`mix_seed`. A stream holds its seed and its Philox state
    (counter, key and output buffer, as the dict numpy's BitGenerator.state
    takes), not a Generator, and each draw replaces that dict with a new one.
    Uniform draws run philox_uniform of _lanes.c, numpy's Generator.random bit
    for bit, on that state. The other draws, and uniform ones without that
    library, load the state into the calling thread's scratch Generator, draw
    and store its state back: no engine or lock is shared between threads, so
    a fork never copies one held. Philox is counter-based, so the bits are those
    of a Generator of the stream's own, and making a stream costs a dict, not
    the OS entropy that numpy's constructor gathers and then discards for the
    key. Instances are single-owner; never share one across threads.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": (0, 0, 0, 0), "key": (self.seed, 0)},
                      "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def _draw(self, name: str, *args):
        engine = getattr(_scratch, "engine", None)
        if engine is None:
            engine = _scratch.engine = np.random.Generator(np.random.Philox(0))
        engine.bit_generator.state = self.state
        out = getattr(engine, name)(*args)
        self.state = engine.bit_generator.state
        return out

    def random(self, size=None):
        fill = _lanes.uniform()
        if fill is None:
            return self._draw("random", size)
        out = np.empty(() if size is None else size)
        state = self.state
        # the counter, key and buffer in new words, so that no dict the
        # stream held is ever written
        words = np.empty(10, dtype=np.uint64)
        words[:4], words[4:6], words[6:] = (state["state"]["counter"], state["state"]["key"],
                                            state["buffer"])
        pos = fill(out.size, out.ctypes.data, words.ctypes.data, state["buffer_pos"])
        self.state = {**state, "state": {"counter": words[:4], "key": words[4:6]},
                      "buffer": words[6:], "buffer_pos": pos}
        return float(out) if size is None else out

    def normal(self, size=None):
        return self._draw("standard_normal", size)

    def integers(self, low, high=None, size=None):
        return self._draw("integers", low, high, size)

    def choice(self, n: int, size: int, replace: bool = False):
        return self._draw("choice", n, size, replace)
