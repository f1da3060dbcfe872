"""The benchmark of acceptance criterion 1: Adam, AMSGrad and delayed Adam on
the two-outcome problem at full scale, 10 replicas of 10^6 steps each.

Criterion 1 (tests/test_acceptance.py) checks its claims at base seed
20240; tests/verdicts.py records them at base seeds 0-11.
"""

import numpy as np

from avagrad_lab.core import Schedule
from avagrad_lab.optim import HyperParams, Method
from avagrad_lab.problems import synth_make
from avagrad_lab.runner import run_synth_replicas

METHODS = (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM)
PROBLEM = synth_make(999.0, 1.0)
T, REPLICAS = 1_000_000, 10


def figures(base_seed: int) -> dict[Method, tuple[float, float, float, float]]:
    """Per method, the replica means of (prefix iterate, prefix grad-norm-sq,
    final-10% iterate, final-10% grad-norm-sq)."""
    hp = HyperParams(alpha=Schedule.constant(1e-5), epsilon=1e-8,
                     beta1=Schedule.constant(0.0), beta2=Schedule.constant(0.99))
    stride = T // 10  # snapshots at 10%, ..., 100%: enough for tail means
    # Every method starts far from w* (~0.4995), at the right box edge: from
    # w1 = 0.5 AMSGrad simply stays near w* with its small first rates, and
    # the comparison would measure the start point, not convergence.
    # One batch of 10 lanes per method; replica i of each keeps seed mix_seed(base, i).
    all_records = run_synth_replicas(
        PROBLEM, METHODS, hp, w1=1.0, T=T, base_seed=base_seed,
        n_replicas=REPLICAS, record_every=stride, capture_trace=False,
    )
    out = {}
    for j, method in enumerate(METHODS):
        records = all_records[j * REPLICAS:(j + 1) * REPLICAS]
        prefix_w = float(np.mean([r.w_mean for r in records]))
        prefix_gs = float(np.mean([r.grad_norm_sq_mean for r in records]))
        # means over the final 10%: difference of prefix sums at .9T and T
        tail_w, tail_gs = [], []
        for r in records:
            row_09 = r.rows[r.rows[:, 0] == int(0.9 * T)][0]
            tail_w.append((r.w_mean * T - row_09[1] * (0.9 * T)) / (0.1 * T))
            tail_gs.append((r.grad_norm_sq_mean * T - row_09[2] * (0.9 * T)) / (0.1 * T))
        out[method] = (prefix_w, prefix_gs, float(np.mean(tail_w)), float(np.mean(tail_gs)))
    return out


def claims(out: dict[Method, tuple[float, float, float, float]]) -> list[tuple[str, bool]]:
    """Criterion 1's sub-checks on figures(): (label, holds) pairs.

    (b) is read on the final window: delayed Adam's first step uses
    eta_1 = 1/epsilon (v_0 = 0, the analysed recursion) and lands on a box
    edge, and the way back to w* takes ~6e5 steps, so a prefix mean over
    1e6 steps still carries that transient. At alpha = 1e-5 the rare kicks
    leave a stationary noise floor of ~3.5e-3 around w*, so the tail bound
    is 1e-2: ~3x that floor and 50x below Adam's >= 0.5 in (a). Delayed
    Adam's own windows before 0.5T all read >= 1e-2, so a run that has not
    reached w* by 0.9T still fails.
    """
    adam_w, adam_gs, _, _ = out[Method.ADAM]
    _, ams_gs, _, _ = out[Method.AMSGRAD]
    _, del_gs, del_tail_w, del_tail_gs = out[Method.DELAYED_ADAM]
    return [
        ("a: adam prefix grad-norm-sq >= 0.5", adam_gs >= 0.5),
        ("a: adam prefix iterate > 0.9", adam_w > 0.9),
        ("b: delayed final-10% grad-norm-sq <= 1e-2", del_tail_gs <= 1e-2),
        ("b: delayed final-10% iterate within 0.05 of w*",
         abs(del_tail_w - PROBLEM.w_star) <= 0.05),
        ("c: delayed prefix grad-norm-sq below amsgrad", del_gs < ams_gs),
    ]
