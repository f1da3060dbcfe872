"""Engine selection for tests: the numpy lane loop and numpy's draws, or the
compiled code of avagrad_lab._lanes that runner.run_trials uses for d = 1
synth batches with constant schedules, and RngStream for its uniform, normal
and choice draws, when a C compiler is present. Also the numeric kernels of
other CPUs, which a child process can be told to use, and the Philox states
that RngStream's tests start from and compare."""

import contextlib
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath

import avagrad_lab
from avagrad_lab import _lanes


@contextlib.contextmanager
def numpy_engine():
    """Run the block without the compiled loop or any compiled draw, as on a
    machine without a compiler."""
    library = _lanes.library
    _lanes.library = lambda: None
    try:
        yield
    finally:
        _lanes.library = library


@contextlib.contextmanager
def counted_kernel():
    """Run the block with the compiled loop, and yield the list of the step
    counts it was asked for, one per call; skips without a compiler."""
    kernel, real = _lanes.kernel(), _lanes.kernel
    if kernel is None:
        pytest.skip("no C compiler: the kernel cannot be built")
    calls = []

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    _lanes.kernel = lambda: counted
    try:
        yield calls
    finally:
        _lanes.kernel = real


def openblas_core():
    """The kernel set of numpy's bundled OpenBLAS, or None where none is found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def other_cpu_kernels() -> list[tuple[str, str]]:
    """(variable, value) pairs that make a process use the numeric kernels of
    an older CPU: OpenBLAS's Haswell and Sandybridge kernels, and numpy's
    AVX2 loops in place of its AVX-512 ones. A set this CPU cannot run is
    left out."""
    have = _multiarray_umath.__cpu_features__
    avx512 = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
              if have.get(f) and f in _multiarray_umath.__cpu_dispatch__]
    return [(name, value) for name, value, needs in (
        ("OPENBLAS_CORETYPE", "Haswell", ["AVX2", "FMA3"]),
        ("OPENBLAS_CORETYPE", "Sandybridge", ["AVX"]),
        ("NPY_DISABLE_CPU_FEATURES", " ".join(avx512), avx512),
    ) if needs and all(have.get(f) for f in needs)]


def child_env(name: str, value: str) -> dict:
    """This process's environment with `name` set to `value`, and a PYTHONPATH
    that finds the package and the test modules."""
    paths = [str(Path(avagrad_lab.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, name: value, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def state_words(state) -> list[int]:
    """A Philox state dict's 13 words, as RngStream.state and numpy give it."""
    return [*map(int, [*state["state"]["counter"], *state["state"]["key"], *state["buffer"]]),
            state["buffer_pos"], state["has_uint32"], state["uinteger"]]


def buffer_half(rng):
    """Leave the other half of a 32-bit draw buffered in RngStream rng, which
    draws no integers itself: its state becomes that of a numpy
    Generator(Philox) that starts from rng's and draws integers(0, 1000)."""
    g = np.random.Generator(np.random.Philox(0))
    g.bit_generator.state = rng.state
    g.integers(0, 1000)
    rng.state = g.bit_generator.state
    assert rng.state["has_uint32"] == 1
    return rng
