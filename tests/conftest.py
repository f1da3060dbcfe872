import pytest

from engines import counted_kernel, numpy_engine


@pytest.fixture(params=["numpy", "kernel"])
def engine(request):
    """Run the test under each engine: the numpy loop, then the compiled loop
    (skipped without a C compiler)."""
    with numpy_engine() if request.param == "numpy" else counted_kernel():
        yield request.param
