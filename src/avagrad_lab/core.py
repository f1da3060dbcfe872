"""Shared numeric primitives: dense float64 vectors, scalar schedules, seeded RNG streams.

Everything downstream (optimizers, problems, trial runner, sweeps) works in
terms of float64 numpy arrays, 1-D vectors or lanes of shape (n, d); this
module holds the vector input check and box projection, the schedule
evaluator, the deterministic RNG contract used to derive independent
per-trial streams (seeds mixed from ints or uint64 arrays; uniform, normal
and choice draws through numpy's own distribution code, compiled into
_lanes.c's library, on the stream's own Philox words, for a whole batch of
streams in one lane_draws call, the others through a scratch numpy Philox
engine per thread, loaded with those words), and the CSV writer every output
file goes through.
"""

from __future__ import annotations

import ctypes
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


# rows of a float table that one csv_g17 call formats: its text, at most 24
# bytes a field, is then 344 kB for the 7 columns of a trajectory (whose
# 2,000 rows at the CLI's default stride take one call), whatever the T
_CHUNK_ROWS = 2048


def write_csv(path, header, rows, what: str) -> None:
    """Write a header and rows as LF-terminated UTF-8 CSV. Floats print with 17
    significant digits (%.17g), so the bytes are fixed for a fixed seed; other
    fields print with str() (%s). Each row is formatted by one % template,
    made once per tuple of field types. A 2-D float64 ndarray of rows is
    instead printed a chunk of _CHUNK_ROWS rows at a time by one call of
    _lanes.c's csv_g17, which writes the bytes of %.17g by integer
    arithmetic; a chunk that it declines (a subnormal, inf or nan, or a value
    outside about [1.1e-16, 7.3e47] in magnitude), and every chunk without the
    library, goes through the templates as a list of rows."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
                _write_table(fh, rows)
            else:
                _write_rows(fh, rows)
    except OSError as exc:
        raise OSError(f"writing {what} to {path}: {exc}") from exc


def _write_rows(fh, rows) -> None:
    """Rows through the % template of their field types, made once a tuple of types."""
    templates = {}
    for row in rows:
        types = tuple(map(type, row))
        template = templates.get(types)
        if template is None:
            template = templates[types] = ",".join(
                ["%.17g" if issubclass(t, float) else "%s" for t in types]) + "\n"
        fh.write(template % tuple(row))


def _write_table(fh, table: np.ndarray) -> None:
    """A float64 table, _CHUNK_ROWS rows to a csv_g17 call."""
    lib = _lanes.library()
    if lib is not None and len(table):  # 24 bytes a field at most, and a row's LF
        text = bytearray(min(len(table), _CHUNK_ROWS) * (24 * table.shape[1] + 1))
        out = ctypes.byref(ctypes.c_char.from_buffer(text))
    for start in range(0, len(table), _CHUNK_ROWS):
        chunk = np.ascontiguousarray(table[start:start + _CHUNK_ROWS])
        size = -1 if lib is None else lib.csv_g17(*chunk.shape, chunk.ctypes.data, out)
        if size >= 0:
            fh.write(str(memoryview(text)[:size], "ascii"))
        else:
            _write_rows(fh, chunk.tolist())


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


class _Words(ctypes.Array):
    """A stream's Philox state as _lanes.c reads it: counter (4 words), key
    (2), buffer (4), buffer_pos, has_uint32, uinteger. A named class, so a
    stream pickles."""

    _type_, _length_ = ctypes.c_uint64, 13


def _at(a: np.ndarray):
    """The address of a writable, non-empty array's data, as a ctypes argument:
    quicker than ndarray.ctypes.data."""
    return ctypes.byref(ctypes.c_char.from_buffer(a))


class RngStream:
    """Deterministic random stream.

    Philox keyed directly by the 64-bit seed: the same seed replays the
    identical draw sequence on any platform. Independent streams take seeds
    from :func:`mix_seed`. A stream holds its seed and its Philox state
    (counter, key, output buffer and the buffered half of a 32-bit draw), as
    13 words in a ctypes array, not a Generator. With _lanes.c's library,
    random, normal and choice without replacement run on those words, through
    numpy's own distribution code (libnpyrandom.a, linked into the library):
    numpy's Generator(Philox) draws bit for bit. Each is the one-stream case
    of :func:`lane_draws`. The other draws, and every draw without that
    library, load the state into the calling thread's scratch Generator, draw
    and store its state back: no engine or lock is shared between threads, so
    a fork never copies one held. Philox is counter-based, so the bits are
    those of a Generator of the stream's own, and making a stream costs 13
    words, not the OS entropy that numpy's constructor gathers and then
    discards for the key. Instances are single-owner; never share one across
    threads.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._words = _Words()
        self._words[4], self._words[10] = self.seed, 4

    def __getstate__(self):  # not _one: it holds the address of this stream's words
        return {"seed": self.seed, "_words": self._words}

    def _alone(self):
        """This stream alone, as _lanes.c's array of stream states; made on its
        first compiled draw, since most streams only ever draw in lanes."""
        try:
            return self._one
        except AttributeError:
            self._one = (ctypes.c_void_p * 1)(ctypes.addressof(self._words))
            return self._one

    @property
    def state(self) -> dict:
        """The Philox state, as a new dict that numpy's BitGenerator.state takes."""
        w = self._words
        return {"bit_generator": "Philox", "state": {"counter": w[:4], "key": w[4:6]},
                "buffer": w[6:10], "buffer_pos": w[10], "has_uint32": w[11], "uinteger": w[12]}

    @state.setter
    def state(self, state: dict) -> None:
        words = []
        for part in (state["state"]["counter"], state["state"]["key"], state["buffer"]):
            words += np.asarray(part, np.uint64).tolist()
        self._words[:] = words + [state["buffer_pos"], state["has_uint32"], state["uinteger"]]

    def _numpy(self, draw):
        """draw(g) on the calling thread's scratch Generator g, loaded with this
        stream's state, which is stored back after it."""
        g = getattr(_scratch, "engine", None)
        if g is None:
            g = _scratch.engine = np.random.Generator(np.random.Philox(0))
        g.bit_generator.state = self.state
        out = draw(g)
        self.state = g.bit_generator.state
        return out

    def _compiled(self, name: str, size):
        """Run _lanes.c's `name` on this stream alone into a new float array
        of `size` (0-d for None); None without the library."""
        lib = _lanes.library()
        if lib is None:
            return None
        out = np.empty(() if size is None else size)
        if out.size:
            getattr(lib, name)(1, self._alone(), 1, out.size, ctypes.c_double.from_buffer(out))
        return out

    def random(self, size=None):
        out = self._compiled("philox_uniform", size)
        if out is None:
            return self._numpy(lambda g: g.random(size))
        return float(out) if size is None else out

    def normal(self, size=None):
        out = self._compiled("philox_normal", size)
        if out is None:
            return self._numpy(lambda g: g.standard_normal(size))
        return float(out) if size is None else out

    def integers(self, low, high=None, size=None):
        return self._numpy(lambda g: g.integers(low, high, size))

    def choice(self, n: int, size: int, replace: bool = False):
        if replace:
            return self._numpy(lambda g: g.choice(n, size, replace=True))
        return lane_draws([self], "choice", 1, (size,), n)[0, 0]

    def choices(self, n: int, size: int, k: int) -> np.ndarray:
        """k draws of choice(n, size) without replacement, stacked (k, size)."""
        return lane_draws([self], "choice", k, (size,), n)[:, 0]


def lane_draws(streams: list[RngStream], kind: str, k: int, shape: tuple = (),
               n: int = 0) -> np.ndarray:
    """The next k draws of each stream, step-major: out[i, p] is stream p's
    i-th draw of `kind`, "uniform" (random(shape)), "normal" (normal(shape))
    or "choice" (choice(n, *shape) without replacement, int64). With
    _lanes.c's library one call makes them all, stream by stream, into the
    C-contiguous (k, len(streams), *shape) array, through numpy's own code;
    choice marks each draw's picks in one n-entry table and clears them after
    it. Without the library, or for a choice that numpy rejects (which then
    raises numpy's own error before it draws), each stream draws through
    numpy in turn."""
    choice = kind == "choice"
    out = np.empty((k, len(streams), *shape), np.int64 if choice else np.float64)
    lib = _lanes.library()
    if lib is None or choice and not 0 <= shape[0] <= n:
        draw = {"uniform": lambda g: g.random((k, *shape)),
                "normal": lambda g: g.standard_normal((k, *shape)),
                "choice": lambda g: np.array([g.choice(n, *shape, replace=False)
                                              for _ in range(k)], np.int64).reshape(k, *shape)}[kind]
        for p, rng in enumerate(streams):
            out[:, p] = rng._numpy(draw)
    elif out.size:
        refs = streams[0]._alone() if len(streams) == 1 else _at(
            np.fromiter([ctypes.addressof(s._words) for s in streams], np.uint64, len(streams)))
        if choice:
            lib.philox_choice(len(streams), refs, k, ctypes.c_int64.from_buffer(out), n, *shape,
                              ctypes.c_int64.from_buffer(np.zeros(n, np.int64)))
        else:
            getattr(lib, "philox_" + kind)(len(streams), refs, k, out[0, 0].size,
                                           ctypes.c_double.from_buffer(out))
    return out
