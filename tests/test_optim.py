import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avagrad_lab.core import Schedule
from avagrad_lab.optim import (
    DecayMode,
    DivergenceError,
    HyperParams,
    Method,
    OptimizerState,
    eta_bounds,
    init_state,
    lane_update,
    normalized_eta,
    step,
)

from reference_impl import RefOptimizer


def hp_of(alpha, epsilon, beta1=0.9, beta2=0.999, weight_decay=0.0, decay_mode=DecayMode.NONE):
    return HyperParams(
        alpha=Schedule.constant(alpha),
        epsilon=epsilon,
        beta1=Schedule.constant(beta1),
        beta2=Schedule.constant(beta2),
        weight_decay=weight_decay,
        decay_mode=decay_mode,
    )


class TestInitState:
    def test_adam_zero_buffers(self):
        s = init_state(Method.ADAM, 3)
        assert np.array_equal(s.m, np.zeros(3))
        assert np.array_equal(s.v, np.zeros(3))
        assert s.v_hat is None and s.t == 0

    def test_amsgrad_has_running_max(self):
        s = init_state(Method.AMSGRAD, 2)
        assert np.array_equal(s.v_hat, np.zeros(2))

    def test_sgd(self):
        s = init_state(Method.SGD, 5)
        assert np.array_equal(s.m, np.zeros(5)) and s.v_hat is None

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            init_state(Method.ADAM, 0)


class TestStepHandExamples:
    def test_delayed_adam_first_step(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, beta2=0.999)
        state = init_state(Method.DELAYED_ADAM, 1)
        w_next, state, rep = step(state, hp, np.array([1.0]), np.array([1.0]))
        assert rep.eta[0] == pytest.approx(1e8, rel=1e-9)
        assert w_next[0] == pytest.approx(-9999999.0, rel=1e-9)
        assert state.v[0] == pytest.approx(0.001, rel=1e-12)

    def test_adam_first_step(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, beta2=0.999)
        state = init_state(Method.ADAM, 1)
        w_next, state, rep = step(state, hp, np.array([1.0]), np.array([1.0]))
        assert state.v[0] == pytest.approx(0.001, rel=1e-12)
        # scalar recomputation oracle, then the rounded constants (~1e-6 precision)
        eta_oracle = 1.0 / (math.sqrt(0.001) + 1e-8)
        assert rep.eta[0] == pytest.approx(eta_oracle, rel=1e-12)
        assert w_next[0] == pytest.approx(1.0 - 0.1 * eta_oracle, rel=1e-12)
        assert rep.eta[0] == pytest.approx(31.6227766, rel=1e-6)
        assert w_next[0] == pytest.approx(-2.16227766, rel=1e-5)

    def test_avagrad_d1_normalization_cancels(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, beta2=0.999)
        state = init_state(Method.AVAGRAD, 1)
        w_next, _, rep = step(state, hp, np.array([1.0]), np.array([1.0]))
        assert w_next[0] == 1.0 - 0.1 * 1.0
        assert rep.eta_min > 0

    def test_avagrad_d2_example(self):
        hp = hp_of(1.0, 0.1, beta1=0.0, beta2=0.999)
        state = init_state(Method.AVAGRAD, 2)
        state.v = np.array([0.01, 0.04])
        w = np.zeros(2)
        w_next, _, rep = step(state, hp, w, np.array([1.0, 1.0]))
        np.testing.assert_allclose(rep.eta, [5.0, 10.0 / 3.0], rtol=1e-12)
        np.testing.assert_allclose(-w_next, [1.17670, 0.78447], rtol=1e-4)
        # same numbers as normalized_eta on the raw rates
        np.testing.assert_allclose(normalized_eta(rep.eta), -w_next, rtol=1e-12)


class TestStepContracts:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            hp_of(0.1, 0.0)

    @pytest.mark.parametrize("weight_decay", [-0.1, math.nan, math.inf])
    def test_weight_decay_must_be_finite_and_non_negative(self, weight_decay):
        # a nan decay used to pass (nan < 0 is False) and then skip the decay term
        with pytest.raises(ValueError, match="weight_decay"):
            hp_of(0.1, 1e-8, weight_decay=weight_decay, decay_mode=DecayMode.DECOUPLED)

    def test_dimension_mismatch(self):
        hp = hp_of(0.1, 1e-8)
        with pytest.raises(ValueError):
            step(init_state(Method.ADAM, 2), hp, np.zeros(3), np.zeros(3))

    def test_nonfinite_gradient_raises_divergence(self):
        hp = hp_of(0.1, 1e-8)
        with pytest.raises(DivergenceError):
            step(init_state(Method.ADAM, 1), hp, np.zeros(1), np.array([np.inf]))

    def test_overflowing_iterate_raises_divergence(self):
        hp = hp_of(1e300, 1e-8, beta1=0.0)
        state = init_state(Method.SGD, 1)
        w, g = np.array([1e300]), np.array([1e9])
        with pytest.raises(DivergenceError):
            step(state, hp, w, g)

    def test_zero_gradient_fixed_point_all_methods(self):
        for method in Method:
            hp = hp_of(0.3, 1e-4, beta1=0.7, beta2=0.9)
            state = init_state(method, 3)
            w = np.array([0.2, -1.0, 3.0])
            for _ in range(5):
                w_next, state, _ = step(state, hp, w, np.zeros(3))
                assert np.array_equal(w_next, w), method
                w = w_next

    def test_step_counter_advances(self):
        hp = hp_of(0.1, 1e-8)
        state = init_state(Method.ADAM, 1)
        _, state, _ = step(state, hp, np.zeros(1), np.ones(1))
        assert state.t == 1
        _, state, _ = step(state, hp, np.zeros(1), np.ones(1))
        assert state.t == 2


class TestWeightDecay:
    def test_decoupled_subtracts_alpha_lambda_w(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, beta2=0.999, weight_decay=0.5)
        w, g = np.array([2.0]), np.array([0.0])
        w_adamw, _, _ = step(init_state(Method.ADAMW, 1), hp, w, g)
        # zero gradient: the update is pure decay
        assert w_adamw[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_coupled_adds_to_gradient_before_moments(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, beta2=0.999, weight_decay=0.5,
                   decay_mode=DecayMode.COUPLED_L2)
        w, g = np.array([2.0]), np.array([0.0])
        _, state, _ = step(init_state(Method.ADAM, 1), hp, w, g)
        assert state.v[0] == pytest.approx(0.001 * 1.0, rel=1e-12)  # (lam*w)^2 enters v

    def test_decay_mode_none_ignores_weight_decay(self):
        hp = hp_of(0.1, 1e-8, beta1=0.0, weight_decay=0.5)
        w, g = np.array([2.0]), np.array([0.0])
        w_next, _, _ = step(init_state(Method.ADAM, 1), hp, w, g)
        assert w_next[0] == 2.0

    def test_adamw_equals_adam_plus_decay_on_raw_gradient(self):
        hp_w = hp_of(0.05, 1e-6, beta1=0.8, beta2=0.95, weight_decay=0.3)
        hp_plain = hp_of(0.05, 1e-6, beta1=0.8, beta2=0.95)
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        sw, sp = init_state(Method.ADAMW, 4), init_state(Method.ADAM, 4)
        for _ in range(10):
            g = rng.normal(size=4)
            w_w, sw, _ = step(sw, hp_w, w, g)
            w_p, sp, _ = step(sp, hp_plain, w, g)
            alpha = 0.05
            np.testing.assert_allclose(w_w, w_p - alpha * 0.3 * w, rtol=1e-15, atol=0)
            w = w_w


class TestStepOracle:
    """Spot-check against the independent scalar reference (full sweep in acceptance)."""

    @pytest.mark.parametrize("method", list(Method))
    def test_sequence_matches_reference(self, method):
        d = 3
        hp = hp_of(0.07, 1e-6, beta1=0.9, beta2=0.99)
        ref = RefOptimizer(method.value, d, alpha=("constant", 0.07), epsilon=1e-6,
                           beta1=("constant", 0.9), beta2=("constant", 0.99))
        state = init_state(method, d)
        rng = np.random.default_rng(123)
        w = rng.normal(size=d)
        w_ref = [float(x) for x in w]
        for _ in range(50):
            g = rng.normal(size=d)
            w, state, _ = step(state, hp, w, g)
            w_ref = ref.step(w_ref, [float(x) for x in g])
            np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=1e-300)

    def test_inverse_sqrt_schedules_match_reference(self):
        d = 2
        hp = HyperParams(
            alpha=Schedule.inverse_sqrt(0.1),
            epsilon=1e-4,
            beta1=Schedule.inverse_sqrt(0.5),
            beta2=Schedule.inverse_t(),
        )
        ref = RefOptimizer("delayed_adam", d, alpha=("inverse_sqrt", 0.1), epsilon=1e-4,
                           beta1=("inverse_sqrt", 0.5), beta2=("inverse_t", 0.0))
        state = init_state(Method.DELAYED_ADAM, d)
        rng = np.random.default_rng(5)
        w = rng.normal(size=d)
        w_ref = [float(x) for x in w]
        for _ in range(30):
            g = rng.normal(size=d)
            w, state, _ = step(state, hp, w, g)
            w_ref = ref.step(w_ref, [float(x) for x in g])
            np.testing.assert_allclose(w, w_ref, rtol=1e-12)


class TestLaneKernel:
    """One lane_update call on n stacked lanes equals n single-lane step() calls, bit
    for bit; this pins avagrad's norm to each lane's own row."""

    @settings(max_examples=200, deadline=None)
    @given(
        method=st.sampled_from(list(Method)),
        decay=st.sampled_from(list(DecayMode)),
        d=st.integers(1, 64),
        n=st.integers(1, 8),
        alpha=st.floats(1e-6, 10.0),
        epsilon=st.floats(1e-10, 10.0),
        beta1=st.floats(0.0, 0.999),
        beta2=st.floats(0.0, 0.9999),
        weight_decay=st.floats(0.0, 0.1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_lanes_match_single_steps(self, method, decay, d, n, alpha, epsilon,
                                               beta1, beta2, weight_decay, seed):
        rng = np.random.default_rng(seed)
        w, m, g = rng.normal(size=(3, n, d))
        v = 10.0 * rng.random((n, d))
        v_hat = v + rng.random((n, d)) if method is Method.AMSGRAD else None
        hp = hp_of(alpha, epsilon, beta1, beta2, weight_decay, decay)
        w_next, m_next, v_next, v_hat_next, eta, alpha_eff = lane_update(
            method, decay, w, m, v, v_hat, g, alpha, beta1, beta2, epsilon, weight_decay)
        alpha_eff = np.broadcast_to(alpha_eff, (n, 1))
        for i in range(n):
            state = OptimizerState(method, m[i], v[i], None if v_hat is None else v_hat[i], 0)
            w_i, state_i, rep = step(state, hp, w[i], g[i])
            assert w_next[i].tobytes() == w_i.tobytes()
            assert m_next[i].tobytes() == state_i.m.tobytes()
            assert v_next[i].tobytes() == state_i.v.tobytes()
            if v_hat is not None:
                assert v_hat_next[i].tobytes() == state_i.v_hat.tobytes()
            assert eta[i].tobytes() == rep.eta.tobytes()
            assert alpha_eff[i, 0] == rep.alpha_eff


class TestDelayProperty:
    @pytest.mark.parametrize("method", [Method.DELAYED_ADAM, Method.AVAGRAD])
    def test_eta_independent_of_current_gradient(self, method):
        hp = hp_of(0.01, 1e-6, beta1=0.9, beta2=0.99)
        rng = np.random.default_rng(17)
        prefix = [rng.normal(size=4) for _ in range(20)]

        def replay(last_g):
            state = init_state(method, 4)
            w = np.zeros(4)
            for g in prefix:
                w, state, rep = step(state, hp, w, g)
            _, _, rep = step(state, hp, w, last_g)
            return rep.eta

        eta_a = replay(np.full(4, 100.0))
        eta_b = replay(np.full(4, -0.001))
        assert np.array_equal(eta_a, eta_b)

    def test_adam_eta_depends_on_current_gradient(self):
        hp = hp_of(0.01, 1e-6, beta1=0.9, beta2=0.99)

        def last_eta(last_g):
            state = init_state(Method.ADAM, 1)
            w = np.zeros(1)
            _, _, rep = step(state, hp, w, np.array([last_g]))
            return rep.eta[0]

        assert last_eta(100.0) != last_eta(0.001)


class TestAmsgradMonotonicity:
    def test_vhat_nondecreasing_eta_nonincreasing(self):
        hp = hp_of(0.01, 1e-8, beta1=0.9, beta2=0.9)
        state = init_state(Method.AMSGRAD, 5)
        rng = np.random.default_rng(2)
        w = np.zeros(5)
        prev_vhat = state.v_hat.copy()
        prev_eta = None
        for _ in range(200):
            w, state, rep = step(state, hp, w, rng.normal(size=5))
            assert np.all(state.v_hat >= prev_vhat)
            if prev_eta is not None:
                assert np.all(rep.eta <= prev_eta)
            prev_vhat = state.v_hat.copy()
            prev_eta = rep.eta


class TestAvagradReduction:
    def test_d1_trajectory_equals_momentum_sgd(self):
        # quick version; the acceptance suite runs the full 100-step batch
        for eps in (1e-8, 1.0, 50.0):
            hp = hp_of(0.1, eps, beta1=0.9, beta2=0.99)
            s_ava, s_mom = init_state(Method.AVAGRAD, 1), init_state(Method.MOMENTUM_SGD, 1)
            rng = np.random.default_rng(31)
            w_ava = w_mom = np.array([0.7])
            for _ in range(50):
                g = rng.normal(size=1)
                w_ava, s_ava, _ = step(s_ava, hp, w_ava, g)
                w_mom, s_mom, _ = step(s_mom, hp, w_mom, g)
                assert w_ava[0] == w_mom[0]


class TestEtaBounds:
    def test_synth_scale(self):
        lo, hi = eta_bounds(hp_of(0.1, 1e-8), 999.0)
        assert lo == pytest.approx(1.0010e-3, rel=1e-4)
        assert hi == pytest.approx(1e8)

    def test_collapse_at_zero_gradient_bound(self):
        assert eta_bounds(hp_of(0.1, 1.0), 0.0) == (1.0, 1.0)

    def test_plain_arithmetic(self):
        lo, hi = eta_bounds(hp_of(0.1, 0.1), 0.9)
        assert lo == pytest.approx(1.0) and hi == pytest.approx(10.0)

    def test_rates_within_bounds_along_trajectory(self):
        hp = hp_of(0.01, 0.05, beta1=0.0, beta2=0.9)
        g2 = 3.0 * math.sqrt(4)
        lo, hi = eta_bounds(hp, g2)
        state = init_state(Method.DELAYED_ADAM, 4)
        rng = np.random.default_rng(8)
        w = np.zeros(4)
        for _ in range(100):
            g = np.clip(rng.normal(size=4), -3, 3)
            w, state, rep = step(state, hp, w, g)
            assert lo - 1e-12 <= rep.eta_min and float(np.max(rep.eta)) <= hi + 1e-12


class TestNormalizedEta:
    def test_d1_self_normalization(self):
        for c in (1e-9, 0.02, 1.0, 3e7):
            assert normalized_eta([c])[0] == 1.0

    def test_three_four_five(self):
        out = normalized_eta([3.0, 4.0])
        expected = np.array([3.0, 4.0]) * math.sqrt(2) / 5.0
        np.testing.assert_allclose(out, expected, rtol=1e-15)

    def test_matches_avagrad_step_example(self):
        np.testing.assert_allclose(
            normalized_eta([5.0, 10.0 / 3.0]), [1.17670, 0.78447], rtol=1e-4
        )

    def test_result_has_unit_scaled_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            eta = np.abs(rng.normal(size=rng.integers(1, 30))) + 1e-3
            out = normalized_eta(eta)
            d = eta.shape[0]
            assert math.sqrt(np.sum((out / math.sqrt(d)) ** 2)) == pytest.approx(1.0, rel=1e-14)

    def test_scale_invariance_quick(self):
        rng = np.random.default_rng(6)
        eta = np.abs(rng.normal(size=16)) + 1e-6
        base = normalized_eta(eta)
        for c in (1e-6, 1.0, 1e6):
            np.testing.assert_allclose(normalized_eta(c * eta), base, rtol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(
        method=st.sampled_from([Method.AVAGRAD, Method.AVAGRADW]),
        d=st.integers(1, 32),
        log2_scale=st.integers(-30, 30),
        mantissa=st.floats(1.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_avagrad_rates_invariant_under_gradient_rescale(self, method, d, log2_scale,
                                                             mantissa, seed):
        """Scaling every gradient by c scales v by c^2 and the raw rates by 1/c,
        so AvaGrad's normalized rates alpha_eff * eta do not move, and the
        iterates scale by c. With epsilon far below sqrt(v), a power-of-two c
        keeps every rounding, so the match is bit for bit."""
        c = mantissa * 2.0 ** log2_scale
        hp = hp_of(1e-2, 1e-150, beta1=0.9, beta2=0.99, weight_decay=1e-2)
        rng = np.random.default_rng(seed)
        w0, grads = rng.normal(size=d), rng.normal(size=(20, d))
        runs = []
        for scale in (1.0, c):
            state, w, rates, ws = init_state(method, d), scale * w0, [], []
            for g in grads:
                w, state, rep = step(state, hp, w, scale * g)
                rates.append(rep.alpha_eff * rep.eta)
                ws.append(w)
            runs.append((np.array(rates), np.array(ws)))
        (rates, ws), (rates_c, ws_c) = runs
        if mantissa == 1.0:
            assert rates_c.tobytes() == rates.tobytes()
            assert ws_c.tobytes() == (c * ws).tobytes()
        else:
            np.testing.assert_allclose(rates_c, rates, rtol=1e-12)
            np.testing.assert_allclose(ws_c, c * ws, rtol=1e-12, atol=1e-12 * c)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            normalized_eta([1.0, 0.0])
        with pytest.raises(ValueError):
            normalized_eta([1.0, -2.0])
