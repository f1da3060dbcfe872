import contextlib
import copy
import gc
import math
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from avagrad_lab import _lanes, runner
from avagrad_lab.core import NonFiniteError, RngStream, Schedule, lane_draws, mix_seed
from avagrad_lab.optim import DecayMode, HyperParams, Method, init_state
from avagrad_lab.mlp import gaussian_blobs, mlp_make
from avagrad_lab.problems import StochasticProblem, quadratic_make, synth_make
from avagrad_lab.runner import (
    BOUND_VARIANTS,
    ROW_COLUMNS,
    STATUS_DIVERGED,
    STATUS_FINISHED,
    TrialConfig,
    bias_gap,
    eval_bound,
    export_trajectory,
    iterate_distribution,
    run_synth_replicas,
    run_trial,
    run_trials,
    summary_line,
)

from engines import buffer_half, counted_kernel, numpy_engine
from reference_impl import RefOptimizer, reference_bias_gap


def replaced(record, **changes):
    """A new record of record's type, built by its constructor from record's
    fields with `changes` applied, as dataclasses.replace builds one."""
    return type(record)(**{**vars(record), **changes})


def make_hp(alpha=1e-3, epsilon=1e-8, beta1=0.0, beta2=0.99):
    return HyperParams(
        alpha=Schedule.constant(alpha),
        epsilon=epsilon,
        beta1=Schedule.constant(beta1),
        beta2=Schedule.constant(beta2),
    )


def synth_cfg(method=Method.DELAYED_ADAM, T=200, seed=42, hp=None, problem=None, **kw):
    return TrialConfig(
        method=method,
        hp=hp or make_hp(),
        problem=problem or synth_make(999.0, 1.0),
        T=T,
        w1=np.array([0.5]),
        seed=seed,
        **kw,
    )


class TestRunTrialBasics:
    def test_single_step_record(self):
        rec = run_trial(synth_cfg(T=1))
        assert rec.steps_done == 1
        assert rec.rows.shape == (1, len(ROW_COLUMNS))
        assert rec.rows[0, 0] == 1
        assert rec.w_mean == rec.rows[0, 1]
        assert rec.grad_norm_sq_mean == rec.rows[0, 2]

    def test_determinism(self):
        a = run_trial(synth_cfg(T=500, seed=3))
        b = run_trial(synth_cfg(T=500, seed=3))
        assert np.array_equal(a.rows, b.rows)
        assert a.w_mean == b.w_mean
        assert a.grad_norm_sq_mean == b.grad_norm_sq_mean
        assert a.z_weight_sum == b.z_weight_sum
        assert np.array_equal(a.w_final, b.w_final)

    def test_box_problem_stays_clamped(self):
        rec = run_trial(synth_cfg(T=300, seed=9))
        assert 0.0 <= rec.w_final[0] <= 1.0
        assert np.all(rec.rows[:, 1] >= 0.0) and np.all(rec.rows[:, 1] <= 1.0)

    @pytest.mark.parametrize("change, message", [
        (dict(T=0), "T must be >= 1"),
        (dict(record_every=0), "record_every must be >= 1"),
        (dict(grad_metric="exact"), "grad_metric must be one of"),
    ], ids=["T", "record_every", "grad_metric"])
    def test_bad_setting_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            run_trial(synth_cfg(**change))

    def test_dimension_mismatch(self):
        cfg = synth_cfg()
        cfg.w1 = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            run_trial(cfg)

    def test_divergence_marks_status_and_keeps_partial_stats(self):
        problem = quadratic_make([1.0], 0.0, [0.0])
        cfg = TrialConfig(
            method=Method.SGD,
            hp=make_hp(alpha=5000.0),
            problem=problem,
            T=1000,
            w1=np.array([1.0]),
            seed=0,
        )
        rec = run_trial(cfg)
        assert rec.status == STATUS_DIVERGED
        assert 0 < rec.steps_done < 1000
        assert math.isfinite(rec.grad_norm_sq_mean)
        assert "status=diverged" in summary_line(rec)

    def test_overflowed_gradient_sum_diverges(self):
        """Each squared batch gradient is finite (about 1e307), but seeds 0 and 2
        overflow their running sum: they leave the batch at that step, with the
        finite statistics of the steps before."""
        problem = quadratic_make([1.0], 5e153, [0.0])
        cfgs = [TrialConfig(method=Method.SGD, hp=make_hp(alpha=1e-3), problem=problem, T=60,
                            w1=np.array([1.0]), seed=seed, grad_metric="batch")
                for seed in (0, 1, 2)]
        for rec in run_trials(cfgs):
            assert rec.status == STATUS_DIVERGED
            assert 0 < rec.steps_done < 60
            assert math.isfinite(rec.grad_norm_sq_mean) and np.all(np.isfinite(rec.rows))
            assert rec.rows[-1, 0] == rec.steps_done
            assert rec.rows[-1, 2] == rec.grad_norm_sq_mean
            alone = run_trial(rec.config)
            assert (alone.steps_done, alone.grad_norm_sq_mean) == (
                rec.steps_done, rec.grad_norm_sq_mean)

    @pytest.mark.parametrize("grad_metric", ["full", "none"])
    def test_overflowed_iterate_sum_diverges(self, grad_metric):
        problem = quadratic_make([1e-300], 0.0, [0.0])
        rec = run_trial(TrialConfig(method=Method.SGD, hp=make_hp(), problem=problem, T=5,
                                    w1=np.array([1e308]), seed=0, grad_metric=grad_metric))
        assert (rec.status, rec.steps_done, rec.w_mean) == (STATUS_DIVERGED, 1, 1e308)
        assert math.isnan(rec.grad_norm_sq_mean) == (grad_metric == "none")

    def test_converged_label(self):
        problem = quadratic_make([1.0], 0.0, [0.0])
        cfg = TrialConfig(
            method=Method.SGD,
            hp=make_hp(alpha=0.5),
            problem=problem,
            T=200,
            w1=np.array([1.0]),
            seed=0,
            converge_tol=1e-12,
        )
        assert run_trial(cfg).status == "converged"

    def test_full_metric_falls_back_to_batch_without_an_expectation(self):
        """A problem with the base class's full_grad (None) gets the drawn
        gradient's metric for "full", flagged inexact."""

        class NoExpectation(StochasticProblem):  # synth's draws and gradients only
            dim, box, synth = 1, (0.0, 1.0), synth_make(999.0, 1.0)

            def sample_lanes(self, streams, k):
                return self.synth.sample_lanes(streams, k)

            def grad(self, w, token):
                return self.synth.grad(w, token)

        problem = NoExpectation()
        rng, synth = RngStream(5), synth_make(999.0, 1.0)
        copied = copy.deepcopy(rng)  # the inherited sample is synth's, token and chunk
        assert np.array_equal(problem.sample(rng), synth.sample(copied))
        assert np.array_equal(problem.sample(rng, 2000), synth.sample(copied, 2000))
        cfgs = [synth_cfg(T=60, seed=s, record_every=7, capture_trace=True, problem=problem,
                          grad_metric="full") for s in (1, 2)]
        got = run_trials(cfgs)
        want = run_trials([replaced(c, grad_metric="batch") for c in cfgs])
        for rec, ref in zip(got, want):
            assert rec.grad_metric_exact is False
            assert_same_record(rec, ref)

    @pytest.mark.parametrize("every, capture, traced", [
        (1, None, True), (2, None, False), (1, False, False), (2, True, True)])
    def test_trace_kept_when_asked_or_by_default_at_stride_one(self, every, capture, traced):
        rec = run_trial(synth_cfg(T=10, record_every=every, capture_trace=capture))
        assert (rec.trace is not None) == traced
        assert np.array_equal(rec.rows, run_trial(synth_cfg(T=10, record_every=every)).rows)

    def test_summary_line_format(self):
        rec = run_trial(synth_cfg(T=10))
        line = summary_line(rec)
        assert line.startswith("status=finished final_grad_norm_sq_mean=")
        assert " Z=" in line


class TestPrefixCorrectness:
    @pytest.mark.parametrize("method", [Method.ADAM, Method.DELAYED_ADAM, Method.AMSGRAD])
    def test_against_independent_replay(self, method):
        """Re-run the trial with the scalar reference stepper and brute-force
        prefix sums computed from explicit lists."""
        T = 400
        seed = 1234
        cfg = synth_cfg(method=method, T=T, seed=seed, record_every=1)
        rec = run_trial(cfg)

        problem = synth_make(999.0, 1.0)
        rng = RngStream(seed)
        ref = RefOptimizer(method.value, 1, alpha=("constant", 1e-3), epsilon=1e-8,
                           beta1=("constant", 0.0), beta2=("constant", 0.99))
        w = [0.5]
        ws, gsqs = [], []
        for _ in range(T):
            token = problem.sample(rng)
            g = problem.grad(np.array(w), token)
            fg = problem.full_grad(np.array(w))
            ws.append(w[0])
            gsqs.append(float(fg[0] * fg[0]))
            w = ref.step(w, [float(g[0])])
            w = [min(1.0, max(0.0, w[0]))]
        for i in range(0, T, 37):
            t = i + 1
            assert rec.rows[i, 0] == t
            assert rec.rows[i, 1] == pytest.approx(sum(ws[:t]) / t, rel=1e-12)
            assert rec.rows[i, 2] == pytest.approx(sum(gsqs[:t]) / t, rel=1e-12)
        assert rec.w_mean == pytest.approx(sum(ws) / T, rel=1e-12)
        assert rec.grad_norm_sq_mean == pytest.approx(sum(gsqs) / T, rel=1e-12)


def assert_same_record(fast, slow):
    """Every field of two trial records equal bit for bit (NaN equal to NaN)."""
    assert fast.status == slow.status
    assert fast.steps_done == slow.steps_done
    assert fast.grad_metric_exact == slow.grad_metric_exact
    for name in ("w_mean", "grad_norm_sq_mean", "z_weight_sum", "w_final", "rows"):
        a, b = np.asarray(getattr(fast, name)), np.asarray(getattr(slow, name))
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (fast.trace is None) == (slow.trace is None)
    if fast.trace is not None:
        for name in vars(fast.trace):
            a, b = getattr(fast.trace, name), getattr(slow.trace, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


# the methods synthfig compares, which differ only in the buffer eta is read from
SYNTHFIG_METHODS = (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM)


def _engine_cases():
    # the plain case keeps the bare method id; decay and schedule variants extend it
    cases = []
    for method in Method:
        for decay in (DecayMode.NONE, DecayMode.COUPLED_L2, DecayMode.DECOUPLED):
            for schedule in ("constant", "inverse_sqrt"):
                tags = [t for t in (decay.value, schedule) if t not in ("none", "constant")]
                cases.append(pytest.param(method, decay, schedule,
                                          id="-".join([method.value] + tags)))
    return cases


class TestReplicaEngineParity:
    @pytest.mark.parametrize("method,decay,schedule", _engine_cases())
    @pytest.mark.usefixtures("engine")
    def test_engine_matches_run_trial_bitwise(self, method, decay, schedule):
        problem = synth_make(999.0, 1.0)
        hp = HyperParams(
            alpha=Schedule(schedule, 1e-4),
            epsilon=1e-8,
            beta1=Schedule.constant(0.9),
            beta2=Schedule.constant(0.99),
            weight_decay=0.0 if decay is DecayMode.NONE else 1e-2,
            decay_mode=decay,
        )
        T, n, base = 500, 3, 2024
        records = run_synth_replicas(problem, method, hp, w1=0.5, T=T, base_seed=base,
                                     n_replicas=n, record_every=25)
        assert len(records) == n
        for i, fast in enumerate(records):
            cfg = TrialConfig(
                method=method, hp=hp, problem=problem, T=T, w1=np.array([0.5]),
                seed=mix_seed(base, i), record_every=25, grad_metric="full",
            )
            slow = run_trial(cfg)
            assert np.array_equal(fast.rows, slow.rows), f"replica {i}"
            assert fast.w_mean == slow.w_mean
            assert fast.grad_norm_sq_mean == slow.grad_norm_sq_mean
            assert fast.z_weight_sum == slow.z_weight_sum
            assert np.array_equal(fast.w_final, slow.w_final)

    @pytest.mark.usefixtures("engine")
    def test_engine_trace_matches_run_trial(self):
        problem = synth_make(999.0, 1.0)
        hp = make_hp(alpha=1e-4, beta1=0.0, beta2=0.99)
        # avagrad's alpha_eff differs per replica, delayed adam's is alpha itself
        for method in (Method.DELAYED_ADAM, Method.AVAGRAD):
            fast = run_synth_replicas(problem, method, hp, w1=0.5, T=100,
                                      base_seed=5, n_replicas=2, record_every=1)[1]
            cfg = TrialConfig(method=method, hp=hp, problem=problem, T=100,
                              w1=np.array([0.5]), seed=mix_seed(5, 1), record_every=1)
            slow = run_trial(cfg)
            assert np.array_equal(fast.rows, slow.rows), method.value
            for field in ("alpha", "eta_min", "eta_max", "eta_l2", "alpha_eff", "grad_norm_sq"):
                assert np.array_equal(getattr(fast.trace, field), getattr(slow.trace, field)), \
                    f"{method.value} {field}"

    def test_stride_policy_includes_final_partial_row(self):
        problem = synth_make(999.0, 1.0)
        recs = run_synth_replicas(problem, Method.ADAM, make_hp(), w1=0.5, T=95,
                                  base_seed=0, n_replicas=1, record_every=10)
        assert list(recs[0].rows[:, 0]) == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]

    @pytest.mark.usefixtures("engine")
    def test_diverging_replicas_match_run_trial(self):
        # the first delayed step overflows to inf, which a box clip would hide
        problem = synth_make(999.0, 1.0)
        hp = make_hp(alpha=1e301)
        records = run_synth_replicas(problem, Method.DELAYED_ADAM, hp, w1=0.5, T=50,
                                     base_seed=3, n_replicas=3, record_every=10)
        for i, fast in enumerate(records):
            slow = run_trial(TrialConfig(
                method=Method.DELAYED_ADAM, hp=hp, problem=problem, T=50, w1=np.array([0.5]),
                seed=mix_seed(3, i), record_every=10, grad_metric="full"))
            assert slow.status == STATUS_DIVERGED and slow.steps_done == 0
            assert fast.status == slow.status
            assert fast.steps_done == slow.steps_done
            assert np.array_equal(fast.rows, slow.rows)
            assert np.array_equal(fast.w_mean, slow.w_mean, equal_nan=True)
            assert_same_record(fast, slow)

    def test_diverged_lanes_hold_only_their_own_arrays(self):
        # Seven divergence steps compact the batch seven times; a diverged lane's
        # rows and trace must not keep alive the buffers that compaction replaced.
        problem = quadratic_make([1.0])
        alphas = [2.6, 3.0, 4.0, 6.0, 20.0, 1e3, 1e10] * 2 + [0.5, 1.5]
        cfgs = [TrialConfig(method=Method.SGD, hp=make_hp(alpha=a), problem=problem, T=2000,
                            w1=np.ones(1), seed=i, record_every=1) for i, a in enumerate(alphas)]
        run_trials(cfgs)  # an untraced run first imports what numpy loads lazily
        tracemalloc.start()
        try:
            records = run_trials(cfgs)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len({rec.steps_done for rec in records}) == 8  # seven divergences and T
        own = sum(a.nbytes for rec in records
                  for a in (rec.rows, rec.w_final, *vars(rec.trace).values()))
        assert held <= 2 * own, (held, own)

    def test_quadratic_lanes_diverge_at_their_own_steps(self):
        problem = quadratic_make([1.0, 2.0], 0.0)
        starts = ([1.0, -1.0], [1e-200, 0.0], [0.0, 0.0], [1e100, 1.0])
        cfgs = [TrialConfig(method=Method.SGD, hp=make_hp(alpha=5000.0), problem=problem,
                            T=200, w1=np.array(w1), seed=i, record_every=4)
                for i, w1 in enumerate(starts)]
        records = run_trials(cfgs)
        steps = [rec.steps_done for rec in records]
        assert steps[2] == 200 and records[2].status == STATUS_FINISHED  # w1 = w* stays put
        assert len(set(steps)) == 4
        assert any(s % 4 for s in steps) and any(s % 4 == 0 for s in steps)  # flushed or not
        for cfg, rec in zip(cfgs, records):
            assert_same_record(rec, run_trial(cfg))

    @pytest.mark.parametrize("kind", ["constant", "inverse_sqrt"])
    def test_lanes_with_their_own_alpha_diverge_at_their_own_steps(self, kind):
        """The flushed final row of a diverged lane carries that lane's alpha."""
        problem = quadratic_make([1.0, 2.0], 0.1)
        rates = ((0.1, 1e-8), (3.0, 1e-3), (30.0, 1e-1), (3000.0, 10.0))
        cfgs = [TrialConfig(method=Method.SGD, hp=HyperParams(alpha=Schedule(kind, alpha),
                                                              epsilon=eps),
                            problem=problem, T=400, w1=np.ones(2), seed=i, record_every=4)
                for i, (alpha, eps) in enumerate(rates)]
        records = run_trials(cfgs)
        diverged = [rec.steps_done for rec in records if rec.status == STATUS_DIVERGED]
        assert len(set(diverged)) == len(diverged) >= 2 and all(s % 4 for s in diverged)
        for cfg, rec in zip(cfgs, records):
            assert_same_record(rec, run_trial(cfg))

    def test_lane_leaves_a_batch_whose_alpha_is_one_value(self):
        # an inverse_t alpha ignores its base, so the batch holds one alpha, not a column
        problem = quadratic_make([1.0, 2.0], 0.0)
        hp = HyperParams(alpha=Schedule.inverse_t(), epsilon=1e-8)
        cfgs = [TrialConfig(method=Method.ADAM, hp=hp, problem=problem, T=20, w1=np.array(w1),
                            seed=i, record_every=3)
                for i, w1 in enumerate(([1.0, 1.0], [1e200, 1.0], [-1.0, 2.0]))]
        records = run_trials(cfgs)
        assert [rec.status for rec in records] == [STATUS_FINISHED, STATUS_DIVERGED,
                                                   STATUS_FINISHED]
        for cfg, rec in zip(cfgs, records):
            assert_same_record(rec, run_trial(cfg))

    @pytest.mark.usefixtures("engine")
    def test_replicas_of_several_methods_diverge_on_their_own(self):
        # delayed adam's first rate is 1/epsilon, so its first step overflows;
        # adam's and amsgrad's first rates see the drawn gradient and stay finite
        problem = synth_make(999.0, 1.0)
        hp = make_hp(alpha=1e301)
        records = run_synth_replicas(problem, SYNTHFIG_METHODS, hp, w1=0.5, T=50,
                                     base_seed=3, n_replicas=3, record_every=10)
        assert [(r.config.method, r.status, r.steps_done) for r in records] == [
            (method, STATUS_DIVERGED if method is Method.DELAYED_ADAM else STATUS_FINISHED,
             0 if method is Method.DELAYED_ADAM else 50)
            for method in SYNTHFIG_METHODS for _ in range(3)]
        for j, method in enumerate(SYNTHFIG_METHODS):
            for i in range(3):
                assert_same_record(records[3 * j + i], run_trial(TrialConfig(
                    method=method, hp=hp, problem=problem, T=50, w1=np.array([0.5]),
                    seed=mix_seed(3, i), record_every=10, grad_metric="full")))

    def test_mlp_lanes_match_run_trial(self):
        problem = mlp_make(2, 8, 3, gaussian_blobs(20, 3, 2, 1.5, RngStream(2)), batch_size=8)
        cfgs = [TrialConfig(method=Method.AVAGRAD, hp=make_hp(alpha=1e-2, beta1=0.9),
                            problem=problem, T=12, w1=0.1 * RngStream(i).normal(problem.dim),
                            seed=i, record_every=5)
                for i in range(3)]
        for cfg, rec in zip(cfgs, run_trials(cfgs)):
            assert_same_record(rec, run_trial(cfg))

    @pytest.mark.usefixtures("engine")
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        method=st.sampled_from(list(Method)),
        quadratic_d=st.integers(0, 12),  # 0: the synth problem
        n=st.integers(1, 6),
        log_alpha=st.floats(-4.0, 8.0),
        alpha_kind=st.sampled_from(["constant", "inverse_sqrt", "inverse_t"]),
        log_scale=st.floats(0.0, 170.0),
        grad_metric=st.sampled_from(["full", "batch", "none"]),
        T=st.integers(1, 40),
        record_every=st.integers(1, 7),
        per_lane_rates=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_n_lanes_equal_n_single_trials(self, method, quadratic_d, n, log_alpha, alpha_kind,
                                           log_scale, grad_metric, T, record_every,
                                           per_lane_rates, seed):
        """Axis and compaction bugs show here: lanes start at very different
        scales, so at a large alpha they diverge at different steps (in about
        a third of the examples). With per_lane_rates each lane also has its
        own alpha base and epsilon, which the batch carries as columns."""
        rng = np.random.default_rng(seed)
        if quadratic_d:
            problem = quadratic_make(1.0 + 3.0 * rng.random(quadratic_d), 0.1)
            starts = rng.normal(size=(n, quadratic_d)) * 10.0 ** (log_scale * rng.random((n, 1)))
        else:
            problem = synth_make(999.0, 1.0)
            starts = rng.random((n, 1))
        def lane_hp():
            spread = per_lane_rates * rng.normal(size=2)
            return HyperParams(alpha=Schedule(alpha_kind, 10.0 ** (log_alpha + 2.0 * spread[0])),
                               epsilon=10.0 ** (-6.0 + 3.0 * spread[1]),
                               beta1=Schedule.constant(0.9), beta2=Schedule.constant(0.99))

        cfgs = [TrialConfig(method=method, hp=lane_hp(), problem=problem, T=T, w1=w1,
                            seed=int(rng.integers(2**63)), record_every=record_every,
                            grad_metric=grad_metric) for w1 in starts]
        for cfg, rec in zip(cfgs, run_trials(cfgs)):
            assert_same_record(rec, run_trial(cfg))

    @pytest.mark.parametrize("kind", ["synth", "quadratic", "mlp"])
    @pytest.mark.usefixtures("engine")
    def test_chunk_size_does_not_change_the_record(self, kind):
        """Tokens are drawn ahead in chunks; chunks of 3 steps (the last one
        short) must give the record of one chunk for the whole trial."""
        if kind == "synth":
            problem, w1 = synth_make(999.0, 1.0), np.array([0.5])
        elif kind == "quadratic":
            problem, w1 = quadratic_make(np.linspace(1.0, 4.0, 10), 0.1), np.ones(10)
        else:
            problem = mlp_make(2, 4, 3, gaussian_blobs(10, 3, 2, 1.5, RngStream(4)), batch_size=5)
            w1 = 0.1 * RngStream(5).normal(problem.dim)
        cfg = TrialConfig(method=Method.AMSGRAD, hp=make_hp(alpha=1e-2), problem=problem, T=20,
                          w1=w1, seed=9, record_every=1)
        whole = run_trial(cfg)
        problem.draw_size = 65536 // 3
        assert_same_record(run_trial(cfg), whole)

    @pytest.mark.parametrize("change", [
        dict(method=Method.AMSGRAD), dict(method=Method.DELAYED_ADAM),
        dict(method=Method.AVAGRAD), dict(method=Method.SGD), dict(method=Method.ADAMW),
        dict(T=51), dict(record_every=5), dict(capture_trace=True),
        dict(grad_metric="batch"), dict(converge_tol=1e-3),
        dict(problem=quadratic_make([1.0, 4.0], 0.1)),
        dict(hp=HyperParams(alpha=Schedule.inverse_sqrt(1e-3), epsilon=1e-8)),
        dict(hp=HyperParams(alpha=Schedule.constant(1e-3), epsilon=1e-8,
                            beta1=Schedule.constant(0.5))),
        dict(hp=HyperParams(alpha=Schedule.constant(1e-3), epsilon=1e-8, weight_decay=1e-2)),
        dict(hp=HyperParams(alpha=Schedule.constant(1e-3), epsilon=1e-8,
                            decay_mode=DecayMode.COUPLED_L2)),
    ])
    def test_lanes_must_share_all_but_start_seed_alpha_and_epsilon(self, change):
        problem = quadratic_make([1.0, 4.0], 0.1)
        base = TrialConfig(method=Method.ADAM, hp=HyperParams(
            alpha=Schedule.constant(1e-3), epsilon=1e-8), problem=problem, T=50,
            w1=np.ones(2), seed=0)
        free = replaced(base, hp=HyperParams(
            alpha=Schedule.constant(0.5), epsilon=1.0), w1=np.zeros(2), seed=1)
        assert len(run_trials([base, free])) == 2
        with pytest.raises(ValueError, match="lanes may differ only"):
            run_trials([base, free, replaced(base, **change)])

    def test_lane_with_wrong_start_shape_rejected(self):
        cfg = synth_cfg()
        with pytest.raises(ValueError, match="problem dimension"):
            run_trials([cfg, replaced(cfg, w1=np.array([0.5, 0.5]))])

    def test_unsupported_problem_rejected(self):
        problem = quadratic_make([1.0], 0.0)
        with pytest.raises(ValueError):
            run_synth_replicas(problem, Method.ADAM, make_hp(), 0.5, 10, 0, 1)

    def test_empty_batch_gives_no_records(self):
        assert run_trials([]) == []

    def test_replicas_need_a_method(self):
        with pytest.raises(ValueError, match="at least one method"):
            run_synth_replicas(synth_make(999.0, 1.0), [], make_hp(), 0.5, 10, 0, 2)

    def test_replicas_run_one_batch_per_method(self, monkeypatch):
        problem, hp = synth_make(999.0, 1.0), make_hp(beta1=0.9)
        args = dict(w1=0.5, T=40, base_seed=6, n_replicas=4, record_every=3)
        alone = [rec for m in SYNTHFIG_METHODS
                 for rec in run_synth_replicas(problem, m, hp, **args)]
        batches = []

        def kept_run_trials(cfgs):
            batches.append([cfg.method for cfg in cfgs])
            return run_trials(cfgs)

        monkeypatch.setattr(runner, "run_trials", kept_run_trials)
        records = run_synth_replicas(problem, SYNTHFIG_METHODS, hp, **args)
        assert batches == [[m] * 4 for m in SYNTHFIG_METHODS]
        assert len(records) == len(alone) == 12
        for rec, want in zip(records, alone):
            assert (rec.config.method, rec.config.seed) == (want.config.method, want.config.seed)
            assert_same_record(rec, want)


class TestCompiledLanes:
    """The compiled loop of avagrad_lab._lanes against the numpy loop, its spec."""

    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from(list(Method)),
        decay=st.sampled_from(list(DecayMode)),
        log_decay=st.floats(-6.0, 1.0),
        grad_metric=st.sampled_from(["full", "batch", "none"]),
        big_c=st.sampled_from([20.0, 999.0]),
        n=st.integers(1, 6),
        T=st.integers(1, 60),
        chunk=st.integers(1, 70),
        record_every=st.integers(1, 9),
        capture_trace=st.sampled_from([None, True, False]),
        beta1=st.sampled_from([0.0, 0.5, 0.9]),
        beta2=st.sampled_from([0.0, 0.9, 0.999]),
        converge_tol=st.sampled_from([None, 1e-2, 10.0]),
        lanes=st.lists(st.tuples(st.floats(-6.0, 8.0) | st.floats(296.0, 307.5),
                                 st.floats(-12.0, 1.0),
                                 st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.5, 3.0])
                                 | st.floats(0.0, 1.0)),
                       min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_numpy_engine(self, method, decay, log_decay, grad_metric, big_c,
                                         n, T, chunk, record_every, capture_trace, beta1,
                                         beta2, converge_tol, lanes, seed):
        """Every record field equal bit for bit. Each lane has its own epsilon
        and alpha, half of them from 1e296 to 3e307, where Z alone can
        overflow, so lanes diverge at their own steps, mid-chunk and at step
        1; chunks of a few steps make the kernel resume often."""
        problem = synth_make(big_c, 1.0)
        problem.draw_size = max(1, 65536 // (n * chunk))  # chunks of about `chunk` steps
        rng = np.random.default_rng(seed)
        cfgs = [TrialConfig(
            method=method,
            hp=HyperParams(alpha=Schedule.constant(10.0 ** log_alpha), epsilon=10.0 ** log_eps,
                           beta1=Schedule.constant(beta1), beta2=Schedule.constant(beta2),
                           weight_decay=0.0 if decay is DecayMode.NONE else 10.0 ** log_decay,
                           decay_mode=decay),
            problem=problem, T=T, w1=np.array([w1]), seed=int(rng.integers(2**63)),
            record_every=record_every, capture_trace=capture_trace, grad_metric=grad_metric,
            converge_tol=converge_tol) for log_alpha, log_eps, w1 in lanes[:n]]
        with counted_kernel() as calls:
            compiled = run_trials(cfgs)
        assert calls
        with numpy_engine():
            spec = run_trials(cfgs)
        for rec, want in zip(compiled, spec):
            assert_same_record(rec, want)

    def test_source_compiles_without_warnings(self):
        """A parameter or variable that an edit of the call leaves unused fails here."""
        if shutil.which(_lanes.CC) is None:
            pytest.skip("no C compiler")
        built = subprocess.run([_lanes.CC, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                                str(_lanes.SOURCE)], capture_output=True, text=True)
        assert built.returncode == 0, built.stderr

    def test_signed_zero_start_stays_in_the_box(self):
        # w1 = -0.0 and a rare first draw give g = -0.0 and m = +0.0, so the
        # step leaves -0.0, which ndarray.clip keeps inside [0, 1]
        problem = synth_make(20.0, 1.0)
        cfg = TrialConfig(method=Method.ADAM, hp=make_hp(), problem=problem, T=1,
                          w1=np.array([-0.0]), seed=0)
        cfgs = [replaced(cfg, seed=i) for i in range(40)]
        with counted_kernel() as calls:
            compiled = run_trials(cfgs)
        assert calls
        with numpy_engine():
            spec = run_trials(cfgs)
        assert any(np.signbit(rec.w_final[0]) for rec in spec)
        for rec, want in zip(compiled, spec):
            assert_same_record(rec, want)

    def test_synth_batches_take_the_kernel_path(self):
        cfg = synth_cfg(T=300, record_every=7)
        with counted_kernel() as calls:
            run_trials([cfg, replaced(cfg, seed=1)])
            assert calls == [300]
            quadratic = quadratic_make([1.0])  # d = 1, but not the synth problem
            run_trial(replaced(cfg, problem=quadratic, w1=np.ones(1)))
            run_trial(replaced(cfg, hp=replaced(
                cfg.hp, alpha=Schedule.inverse_sqrt(1e-3))))
            assert calls == [300]

    @pytest.mark.parametrize("broken", ["compiler", "read_only_cache", "cache_under_a_file",
                                        "no_archive"])
    def test_failed_build_falls_back_to_numpy(self, broken, tmp_path, monkeypatch, capfd):
        cfg = synth_cfg(T=300, record_every=7, grad_metric="batch")
        cfgs = [replaced(cfg, seed=i) for i in range(3)]

        def draws():
            rng = RngStream(11)
            got = [rng.random(3), rng.normal(5)]
            buffer_half(rng)
            got += [rng.random(), rng.choice(240, 32), rng.choice(10001, 201),
                    lane_draws([rng], "choice", 3, (7,), 50)]
            return [np.asarray(d).tobytes() for d in got]

        with numpy_engine():
            want, want_draws = run_trials(cfgs), draws()
        cache = tmp_path / "cache"
        if broken == "compiler":
            monkeypatch.setattr(_lanes, "CC", "false")
        elif broken == "read_only_cache":
            cache.mkdir(mode=0o500)
            if os.access(cache, os.W_OK):
                pytest.skip("this user writes to read-only directories")
        elif broken == "no_archive":  # a numpy build without numpy/random/lib
            monkeypatch.setattr(_lanes, "ARCHIVE", tmp_path / "lib" / "libnpyrandom.a")
        else:  # no directory can be made under a file, whoever runs
            cache.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        _lanes.library.cache_clear()
        try:
            assert _lanes.library() is None and _lanes.kernel() is None
            for rec, ref in zip(run_trials(cfgs), want):
                assert_same_record(rec, ref)
            assert draws() == want_draws
        finally:
            _lanes.library.cache_clear()
        assert capfd.readouterr() == ("", "")

    def test_racing_builds_load_one_library(self, tmp_path):
        """Two processes that build into one empty cache at once load one file."""
        if _lanes.kernel() is None:
            pytest.skip("no C compiler: the kernel cannot be built")
        src = Path(_lanes.__file__).resolve().parents[1]
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": os.pathsep.join([str(src), *filter(None, [
                   os.environ.get("PYTHONPATH")])])}
        go = tmp_path / "go"
        code = ("import os, sys, time, avagrad_lab._lanes as lanes\n"
                "open(sys.argv[1], 'w').close()\n"
                "while not os.path.exists(sys.argv[2]):\n"
                "    time.sleep(0.001)\n"
                "lib = lanes.library()\n"
                "print(None if lib is None else lib._name)\n")
        ready = [tmp_path / f"ready{i}" for i in range(2)]
        procs = [subprocess.Popen([sys.executable, "-c", code, str(r), str(go)], env=env,
                                  stdout=subprocess.PIPE, text=True) for r in ready]
        try:
            deadline = time.monotonic() + 60.0
            while not all(r.exists() for r in ready) and time.monotonic() < deadline:
                time.sleep(0.01)
            go.touch()
            names = [proc.communicate(timeout=120)[0].strip() for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert names[0] == names[1] != "None"
        assert [p.name for p in (tmp_path / "cache" / "avagrad_lab").iterdir()] == [
            Path(names[0]).name]

    @pytest.mark.parametrize("cached", [False, True], ids=["build", "cached"])
    def test_load_removes_stale_libraries(self, cached, tmp_path, monkeypatch):
        """A load, after a build or of the cached library with no build, deletes
        the libraries of other kernels from the cache and keeps the current one
        and the files that are not libraries."""
        current = _lanes.library()
        if current is None:
            pytest.skip("no C compiler: the kernel cannot be built")
        cache = tmp_path / "cache" / "avagrad_lab"
        cache.mkdir(parents=True)
        name = Path(current._name).name
        if cached:
            shutil.copyfile(current._name, cache / name)
            before = os.stat(cache / name)
        (cache / "_lanes-0123456789abcdef.so").write_bytes(b"an old kernel")
        (cache / "notes.txt").write_text("kept")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _lanes.library.cache_clear()
        try:
            lib = _lanes.library()
        finally:
            _lanes.library.cache_clear()
        assert lib is not None and lib.lanes_run is not None
        assert Path(lib._name) == cache / name
        assert sorted(p.name for p in cache.iterdir()) == [name, "notes.txt"]
        if cached:  # loaded as it was, not rebuilt
            after = os.stat(cache / name)
            assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


class TestIterateDistribution:
    def test_sgd_constant_alpha_uniform(self):
        cfg = synth_cfg(method=Method.SGD, T=4, record_every=1)
        rec = run_trial(cfg)
        np.testing.assert_allclose(iterate_distribution(rec), [0.25] * 4, rtol=1e-15)

    def test_normalization_example(self):
        # alpha_t * min eta proportional to [1, 3] -> [0.25, 0.75]
        rec = run_trial(synth_cfg(T=2, record_every=1))
        rec.trace.alpha[:] = [1.0, 1.0]
        rec.trace.eta_min[:] = [1.0, 3.0]
        np.testing.assert_allclose(iterate_distribution(rec), [0.25, 0.75], rtol=1e-15)

    def test_replay_oracle(self):
        cfg = synth_cfg(method=Method.DELAYED_ADAM, T=100, seed=7, record_every=1)
        rec = run_trial(cfg)
        # independent recomputation from a reference replay of the eta trace
        problem = synth_make(999.0, 1.0)
        rng = RngStream(7)
        ref = RefOptimizer("delayed_adam", 1, alpha=("constant", 1e-3), epsilon=1e-8,
                           beta1=("constant", 0.0), beta2=("constant", 0.99))
        w = [0.5]
        etas = []
        for _ in range(100):
            token = problem.sample(rng)
            g = float(problem.grad(np.array(w), token)[0])
            etas.append(1.0 / (math.sqrt(ref.v[0]) + 1e-8))
            w = ref.step(w, [g])
            w = [min(1.0, max(0.0, w[0]))]
        weights = np.array([1e-3 * e for e in etas])
        weights /= weights.sum()
        np.testing.assert_allclose(iterate_distribution(rec), weights, rtol=1e-14)

    def test_requires_trace(self):
        rec = run_trial(synth_cfg(T=20, record_every=5))
        with pytest.raises(ValueError, match="full-resolution"):
            iterate_distribution(rec)

    def test_diverged_rejected(self):
        problem = quadratic_make([1.0], 0.0, [0.0])
        cfg = TrialConfig(method=Method.SGD, hp=make_hp(alpha=5000.0), problem=problem,
                          T=500, w1=np.array([1.0]), seed=0, record_every=1)
        rec = run_trial(cfg)
        assert rec.status == STATUS_DIVERGED
        with pytest.raises(ValueError, match="diverged"):
            iterate_distribution(rec)


def bound_trial(T, gamma=1.0, epsilon=1e-2, seed=11, method=Method.DELAYED_ADAM, beta1=None):
    problem = synth_make(999.0, 1.0)
    w1 = np.array([0.9])
    consts = problem.constants(w1)
    alpha = gamma * math.sqrt(2.0 * consts.d_gap / (T * consts.m_smooth * consts.g_inf ** 2))
    hp = HyperParams(
        alpha=Schedule.constant(alpha),
        epsilon=epsilon,
        beta1=beta1 if beta1 is not None else Schedule.constant(0.0),
        beta2=Schedule.constant(0.99),
    )
    cfg = TrialConfig(method=method, hp=hp, problem=problem, T=T, w1=w1, seed=seed,
                      record_every=max(1, T // 10), capture_trace=True)
    return run_trial(cfg), consts


class TestEvalBound:
    def test_unconditional_holds_and_scales_with_sqrt_T(self):
        rec1, consts = bound_trial(T=2000)
        rec4, _ = bound_trial(T=8000)
        rep1 = eval_bound(rec1, consts, "unconditional")
        rep4 = eval_bound(rec4, consts, "unconditional")
        assert rep1.lhs <= rep1.rhs and rep4.lhs <= rep4.rhs
        assert rep1.rhs / rep4.rhs == pytest.approx(2.0, rel=1e-10)
        assert math.isfinite(rep1.ratio)

    def test_conditional_avagrad_d1_reduces_to_doubled_base(self):
        T = 500
        rec, consts = bound_trial(T=T, method=Method.AVAGRAD)
        rep = eval_bound(rec, consts, "conditional")
        base = math.sqrt(consts.m_smooth * consts.d_gap * consts.g_inf ** 2 / (2.0 * T))
        assert rep.rhs == pytest.approx(2.0 * base, rel=1e-10)
        assert rep.lhs <= rep.rhs

    def test_momentum_variant_requires_inverse_sqrt_beta1(self):
        rec, consts = bound_trial(T=200)
        with pytest.raises(ValueError, match="momentum"):
            eval_bound(rec, consts, "momentum")

    def test_momentum_variant_evaluates(self):
        rec, consts = bound_trial(T=400, beta1=Schedule.inverse_sqrt(0.9))
        rep = eval_bound(rec, consts, "momentum")
        assert math.isfinite(rep.rhs) and rep.rhs > 0
        assert rep.lhs <= rep.rhs

    def test_conditional_rejects_momentum_runs(self):
        rec, consts = bound_trial(T=200, beta1=Schedule.inverse_sqrt(0.9))
        with pytest.raises(ValueError, match="beta1"):
            eval_bound(rec, consts, "conditional")

    @pytest.mark.parametrize("variant", BOUND_VARIANTS)
    def test_overflowing_bound_raises(self, variant):
        beta1 = Schedule.inverse_sqrt(0.9) if variant == "momentum" else None
        rec, consts = bound_trial(T=100, beta1=beta1)
        rec.trace.alpha[:] = 1e300  # gamma squared, and gamma * gamma * eta_l2 ** 2, overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"{variant} bound overflows"):
                eval_bound(rec, consts, variant)

    def test_missing_constants_rejected(self):
        rec, _ = bound_trial(T=100)
        problem = quadratic_make([1.0])
        partial = problem.constants(np.array([1.0]))  # no gradient bounds
        with pytest.raises(ValueError, match="bound"):
            eval_bound(rec, partial, "unconditional")


class TestBiasGap:
    def setup_method(self):
        self.problem = synth_make(999.0, 1.0)
        self.hp = make_hp(alpha=1e-5, epsilon=1e-8, beta1=0.0, beta2=0.99)

    def random_state(self, i):
        rng = RngStream(mix_seed(314, i))
        state = init_state(Method.DELAYED_ADAM, 1)
        state.v = 100.0 * rng.random(1)  # below the stationary second-moment scale
        state.t = 1 + int(999 * rng.random())  # in [1, 999]
        w = rng.random(1)
        return w, state

    def test_delayed_mode_exactly_zero_50_states(self):
        for i in range(50):
            w, state = self.random_state(i)
            gap = bias_gap(w, state, self.hp, self.problem, "delayed")
            assert gap[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        big_c=st.floats(1.5, 1e4),
        delta_share=st.floats(1e-3, 0.999),
        w=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1e8),
        t=st.integers(0, 10**6),
        beta2=st.floats(0.0, 0.9999),
        epsilon=st.floats(1e-12, 10.0),
    )
    def test_delayed_mode_exactly_zero_on_random_problems(self, big_c, delta_share, w, v, t,
                                                          beta2, epsilon):
        """The delayed rate is read before the draw, so eta_s - eta_ref is 0 for
        every outcome s: the gap is the zero vector, not a small number."""
        problem = synth_make(big_c, delta_share * big_c)
        state = init_state(Method.DELAYED_ADAM, 1)
        state.v, state.t = np.array([v]), t
        hp = make_hp(alpha=1e-5, epsilon=epsilon, beta1=0.0, beta2=beta2)
        gap = bias_gap(np.array([w]), state, hp, problem, "delayed")
        assert gap.shape == (1,) and gap[0] == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        big_c=st.floats(1.5, 1e4),
        delta_share=st.floats(1e-3, 0.999),
        w=st.floats(0.0, 1.0),
        v=st.floats(0.0, 1e8),
        t=st.integers(0, 10**6),
        beta2=st.one_of(st.tuples(st.just("constant"), st.floats(0.0, 0.9999)),
                        st.just(("inverse_t", 0.0))),
        epsilon=st.floats(1e-12, 10.0),
    )
    def test_adam_mode_equals_scalar_reference_bitwise(self, big_c, delta_share, w, v, t,
                                                       beta2, epsilon):
        """The coupled gap, outcome by outcome in plain floats, to the last bit."""
        delta = delta_share * big_c
        state = init_state(Method.ADAM, 1)
        state.v, state.t = np.array([v]), t
        hp = HyperParams(alpha=Schedule.constant(1e-5), epsilon=epsilon,
                         beta1=Schedule.constant(0.0), beta2=Schedule(*beta2))
        gap = bias_gap(np.array([w]), state, hp, synth_make(big_c, delta), "adam")
        want = reference_bias_gap(big_c, delta, w, v, beta2, epsilon, t)
        assert gap.shape == (1,) and float(gap[0]).hex() == want.hex()

    def test_adam_mode_nonzero_50_states(self):
        for i in range(50):
            w, state = self.random_state(i)
            gap = bias_gap(w, state, self.hp, self.problem, "adam")
            assert abs(gap[0]) > 1e-9

    def test_adam_gap_pushes_toward_right_edge(self):
        state = init_state(Method.ADAM, 1)
        state.v = np.array([1.0])
        gap = bias_gap(np.array([0.5]), state, self.hp, self.problem, "adam")
        # expected update is -alpha * E[eta g]; the gap shifts it in the +w direction
        assert -gap[0] > 0

    def test_gap_vanishes_as_beta2_approaches_one(self):
        # continuity in beta2: the sample shift of v scales with 1 - beta2
        state = init_state(Method.ADAM, 1)
        state.v = np.array([1.0])
        w = np.array([0.5])
        gaps = []
        for b2 in (0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12):
            hp = HyperParams(alpha=Schedule.constant(1e-5), epsilon=1e-8,
                             beta1=Schedule.constant(0.0), beta2=Schedule.constant(b2))
            gaps.append(abs(bias_gap(w, state, hp, self.problem, "adam")[0]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6

    def test_requires_enumerable_outcomes(self):
        problem = quadratic_make([1.0])
        state = init_state(Method.ADAM, 1)
        with pytest.raises(ValueError, match="outcomes"):
            bias_gap(np.array([0.0]), state, self.hp, problem, "adam")


class TestExportTrajectory:
    def test_two_rows_plus_header(self, tmp_path):
        rec = run_trial(synth_cfg(T=2, record_every=1))
        path = tmp_path / "traj.csv"
        export_trajectory(rec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(ROW_COLUMNS)
        assert len(lines) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectory(run_trial(synth_cfg(T=100, seed=5, record_every=7)), p1)
        export_trajectory(run_trial(synth_cfg(T=100, seed=5, record_every=7)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_stride_policy(self, tmp_path):
        rec = run_trial(synth_cfg(T=95, record_every=10))
        path = tmp_path / "t.csv"
        export_trajectory(rec, path)
        ts = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
        assert ts == [10, 20, 30, 40, 50, 60, 70, 80, 90, 95]

    @settings(max_examples=300, deadline=None)
    @given(t=st.integers(0, 2**53))
    @example(t=0)
    @example(t=1)
    @example(t=2**53 - 1)
    @example(t=10**16)
    @example(t=2**53)
    @example(t=99999999999999984)  # the largest double below 10^17
    def test_step_column_prints_as_its_integer(self, t):
        """%.17g of an integer-valued float below 10^17 is its integer's str()."""
        assert "%.17g" % float(t) == str(t)

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    def test_bytes_of_integer_step_rows(self, engine, tmp_path):
        """The bytes of the rows with t as an int, as export_trajectory wrote
        them before it passed the float table, for records of both engines:
        one trial of 5,000 rows (past a chunk of the formatter) and the
        strided rows of a two-seed batch."""
        if engine == "compiled" and _lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        with numpy_engine() if engine == "numpy" else contextlib.nullcontext():
            problem = synth_make(999.0, 1.0)
            records = [run_trial(synth_cfg(T=5000, record_every=1, seed=3)), *run_trials(
                [synth_cfg(T=300, seed=s, record_every=7, problem=problem) for s in (1, 2)])]
            for i, rec in enumerate(records):
                export_trajectory(rec, tmp_path / f"{i}.csv")
        for i, rec in enumerate(records):
            want = "".join(",".join([str(int(row[0]))] + [f"{v:.17g}" for v in row[1:]]) + "\n"
                           for row in rec.rows.tolist())
            assert (tmp_path / f"{i}.csv").read_text() == ",".join(ROW_COLUMNS) + "\n" + want

    def test_io_error_has_path_context(self, tmp_path):
        rec = run_trial(synth_cfg(T=2))
        bad = tmp_path / "nope" / "traj.csv"
        with pytest.raises(OSError, match="nope"):
            export_trajectory(rec, bad)
