import io

import pytest

import criterion9
from avagrad_lab.sweep import run_sweep
from engines import counted_kernel, numpy_engine


@pytest.fixture(params=["numpy", "kernel"])
def engine(request):
    """Run the test under each engine: the numpy loop, then the compiled loop
    (skipped without a C compiler)."""
    with numpy_engine() if request.param == "numpy" else counted_kernel():
        yield request.param


@pytest.fixture(scope="session")
def criterion9_cells():
    """The cells of criterion 9's sweep with its 8 workers, run once a session
    (the sweep takes about 8 s) and shared by the two tests that score it."""
    return run_sweep(criterion9.spec(), workers=criterion9.WORKERS, progress=io.StringIO())
