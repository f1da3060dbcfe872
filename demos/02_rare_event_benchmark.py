"""The scalar rare-event benchmark at desk scale.

The objective mixes a steep quadratic drawn with probability 0.002 and a
constant downhill pull otherwise; the stationary point sits near w = 0.5.
When the rates react to the current sample (adam), the rare draw shrinks
the step exactly when a large correction is needed, and the iterate drifts
to the boundary w = 1 and stays there. Computing the rates from the previous
second-moment estimate (delayed_adam) removes that coupling: the rare pull
arrives at full strength and the iterate works its way back to w*.

Starting from w1 = 1.0 makes the contrast visible quickly: adam never
leaves the boundary, the running-max method (amsgrad) leaves it very slowly
because its rates are frozen small, and the delayed method returns to w*.
"""

import numpy as np

from avagrad_lab import (
    HyperParams,
    Method,
    Schedule,
    export_trajectory,
    run_synth_replicas,
    synth_make,
)

problem = synth_make(999.0, 1.0)
print(f"rare-sample probability p = {problem.p}")
print(f"stationary point w* = {problem.w_star:.6f}")

hp = HyperParams(
    alpha=Schedule.constant(1e-5),
    epsilon=1e-8,
    beta1=Schedule.constant(0.0),
    beta2=Schedule.constant(0.99),
)

T, seeds, w1 = 400_000, 5, 1.0
print(f"\nrunning {seeds} replicas of {T} steps per method from w1 = {w1}")
print(f"{'method':13s} {'mean iterate':>12s} {'mean grad^2':>12s} {'final w':>9s}")
methods = (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM)
# one lock-step batch per method, of its replicas, each with its own seed
all_records = run_synth_replicas(
    problem, methods, hp, w1=w1, T=T, base_seed=11,
    n_replicas=seeds, record_every=T // 20,
)
for j, method in enumerate(methods):
    records = all_records[j * seeds:(j + 1) * seeds]
    prefix_w = np.mean([r.w_mean for r in records])
    prefix_gs = np.mean([r.grad_norm_sq_mean for r in records])
    final_w = np.mean([r.w_final[0] for r in records])
    print(f"{method.value:13s} {prefix_w:12.4f} {prefix_gs:12.3e} {final_w:9.4f}")

# the prefix curves of one replica, ready for any external plotter
records = run_synth_replicas(problem, Method.DELAYED_ADAM, hp, w1=w1, T=T,
                             base_seed=11, n_replicas=1, record_every=T // 100)
export_trajectory(records[0], "delayed_adam_trajectory.csv")
print("\nwrote delayed_adam_trajectory.csv (t, prefix means, per-step rates)")
print("note: whatever w1 is, the delayed first step uses eta = 1/epsilon and")
print("lands on a box boundary, so every run pays that transient once.")
