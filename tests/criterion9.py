"""The grid of acceptance criterion 9, the 7 x 7 x 3 MLP holdout sweep.

Criterion 9 (tests/test_acceptance.py) and its golden sweep
(tests/test_golden.py) score one run of it, made once a session by the
`criterion9_cells` fixture of conftest.py with criterion 9's 8 workers; the
golden fixture was recorded with 2, so the bytes also check worker-count
invariance. tests/verdicts.py runs it at other base seeds.
"""

from avagrad_lab.core import RngStream
from avagrad_lab.optim import Method
from avagrad_lab.mlp import gaussian_blobs, mlp_make
from avagrad_lab.sweep import GridSpec

WORKERS = 8


def spec(base_seed: int = 7) -> GridSpec:
    train = gaussian_blobs(80, 3, 2, 1.5, RngStream(42))
    holdout = gaussian_blobs(40, 3, 2, 1.5, RngStream(43))
    # 7x7 sub-grid of the default axes; the epsilon range sits at and above
    # the gradient scale, where the best alpha of a coupled method must
    # track epsilon while the normalised method's update is insensitive
    return GridSpec(problem=mlp_make(2, 16, 3, train, batch_size=32),
                    methods=[Method.ADAM, Method.AVAGRAD],
                    alphas=[1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0],
                    epsilons=[1e-2, 1e-1, 1.0, 2.0, 10.0, 20.0, 100.0], seeds=[0, 1, 2],
                    T=2000, base_seed=base_seed, metric="holdout_ce", holdout=holdout,
                    init_scale=0.1)
