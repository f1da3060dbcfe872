import math

import numpy as np
import pytest

from avagrad_lab.core import (
    RngStream,
    Schedule,
    clamp_box,
    mix_seed,
    schedule_eval,
)


class TestClampBox:
    def test_basic(self):
        assert np.array_equal(clamp_box([1.2, 0.5, -0.1], 0, 1), [1.0, 0.5, 0.0])

    def test_interior_fixed(self):
        assert np.array_equal(clamp_box([0.4995], 0, 1), [0.4995])

    def test_large_negative_lands_on_boundary(self):
        assert np.array_equal(clamp_box([-1e7], 0, 1), [0.0])

    def test_bounds_out_of_order(self):
        with pytest.raises(ValueError):
            clamp_box([0.5], 1.0, 0.0)

    def test_keeps_nan_signed_zero_and_subnormals(self):
        """NaN and a -0.0 or subnormal inside the box pass through, on lanes of
        any shape; the compiled loop's clip copies this."""
        a = np.array([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                      1.0, 1.0 + 2**-52, -1e300, 0.5, 2.0])
        want = np.array([-0.0, 0.0, math.nan, 1.0, 0.0, 5e-324, 0.0, 1.0, 1.0, 0.0, 0.5, 1.0])
        for shape in (a.shape, (12, 1), (3, 4)):
            got = clamp_box(a.reshape(shape), 0.0, 1.0)
            assert got.shape == shape and got.tobytes() == want.reshape(shape).tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = 10 * rng.normal(size=8)
            once = clamp_box(a, -1, 2)
            assert np.array_equal(clamp_box(once, -1, 2), once)


class TestSchedule:
    def test_inverse_sqrt(self):
        assert schedule_eval(Schedule.inverse_sqrt(0.9), 4) == 0.45

    def test_inverse_t_start(self):
        assert schedule_eval(Schedule.inverse_t(), 1) == 0.0

    def test_constant_large_t(self):
        assert schedule_eval(Schedule.constant(0.999), 10**6) == 0.999

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            schedule_eval(Schedule.constant(0.9), 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Schedule("linear", 0.5)

    def test_inverse_t_monotone_below_one(self):
        s = Schedule.inverse_t()
        vals = [schedule_eval(s, t) for t in (1, 2, 3, 10, 100, 10**6)]
        assert all(v < 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRngStream:
    def test_fixed_seed_reproduces_integer_sequence(self):
        a = RngStream(987654321).integers(0, 2**63, size=256)
        b = RngStream(987654321).integers(0, 2**63, size=256)
        assert np.array_equal(a, b)

    def test_scalar_and_array_draws_agree(self):
        # the replica fast path draws in blocks while run_trial draws one at a time
        s1, s2 = RngStream(42), RngStream(42)
        scalars = np.array([s1.random() for _ in range(100)])
        assert np.array_equal(scalars, s2.random(100))

    def test_chunked_draws_concatenate(self):
        s1, s2 = RngStream(9), RngStream(9)
        whole = s1.random(100)
        parts = np.concatenate([s2.random(37), s2.random(63)])
        assert np.array_equal(whole, parts)

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1) != mix_seed(1, 0)
