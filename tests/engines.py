"""Engine selection for tests: the numpy lane loop, or the compiled loop of
avagrad_lab._lanes that runner.run_trials uses for d = 1 synth batches with
constant schedules when a C compiler is present."""

import contextlib

import pytest

from avagrad_lab import _lanes


@contextlib.contextmanager
def numpy_engine():
    """Run the block without the compiled loop, as on a machine without a compiler."""
    kernel = _lanes.kernel
    _lanes.kernel = lambda: None
    try:
        yield
    finally:
        _lanes.kernel = kernel


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
