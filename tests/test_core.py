import contextlib
import copy
import math
import os
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avagrad_lab import _lanes
from avagrad_lab.core import (
    RngStream,
    Schedule,
    clamp_box,
    mix_seed,
    schedule_eval,
)
from engines import numpy_engine


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

    def test_copied_and_pickled_streams_continue_the_sequence(self):
        rng = RngStream(12)
        rng.integers(0, 1000)  # leaves half an output buffered
        copies = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
        want = rng.integers(0, 1000, size=3), rng.normal(5)
        for other in copies:
            got = other.integers(0, 1000, size=3), other.normal(5)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1) != mix_seed(1, 0)

    def test_interleaved_streams_equal_their_own_generators(self):
        """Streams drawn in turn, each on its own state, give the bits of a
        Generator of their own; a 32-bit integer draw leaves the other half of
        a Philox output buffered in the stream for its next one."""
        seeds = [0, 7, 2**63, 2**64 - 1]
        streams = [RngStream(s) for s in seeds]
        gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
        draws = [
            (lambda r: r.random(), lambda g: g.random()),
            (lambda r: r.integers(0, 1000), lambda g: g.integers(0, 1000)),
            (lambda r: r.normal(5), lambda g: g.standard_normal(5)),
            (lambda r: r.integers(0, [7, 2**31, 90], size=(4, 3)),
             lambda g: g.integers(0, [7, 2**31, 90], size=(4, 3))),
            (lambda r: r.choice(240, 32), lambda g: g.choice(240, size=32, replace=False)),
            (lambda r: r.random((2, 3)), lambda g: g.random((2, 3))),
            (lambda r: r.choice(9, 9, replace=True), lambda g: g.choice(9, size=9)),
        ]
        for _ in range(3):
            for stream_draw, gen_draw in draws:
                for rng, gen in zip(streams, gens):
                    got, want = stream_draw(rng), gen_draw(gen)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for rng, gen in zip(streams, gens):  # each stream holds its own state
            got, want = rng.state, gen.bit_generator.state
            for key in ("counter", "key"):
                assert np.array_equal(got["state"][key], want["state"][key])
            assert np.array_equal(got["buffer"], want["buffer"])
            assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
                [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @pytest.mark.parametrize("n, size", [(5, 6), (0, 1), (5, -1)])
    def test_rejected_choice_shapes_raise_numpys_error_and_draw_nothing(self, n, size, engine):
        if engine == "compiled" and _lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        with pytest.raises(ValueError) as spec:
            np.random.Generator(np.random.Philox(0)).choice(n, size, replace=False)
        rng = RngStream(8)
        rng.integers(0, 1000)  # leaves half an output buffered
        before = rng.state
        with numpy_engine() if engine == "numpy" else contextlib.nullcontext():
            for draw in (lambda: rng.choice(n, size), lambda: rng.choices(n, size, 3)):
                with pytest.raises(ValueError) as got:
                    draw()
                assert str(got.value) == str(spec.value)
        assert rng.state == before

    def test_threads_drawing_their_own_streams_get_the_sequential_values(self):
        seeds, rounds = (3, 4), 2000

        def draws(seed):
            rng = RngStream(seed)
            return [(rng.random(3), rng.choice(50, 5)) for _ in range(rounds)]

        want, got = {s: draws(s) for s in seeds}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda s=s: got.update({s: draws(s)}))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for s in seeds:
            assert len(got[s]) == rounds
            for (a, b), (c, d) in zip(got[s], want[s]):
                assert np.array_equal(a, c) and np.array_equal(b, d)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process:DeprecationWarning")  # fork with threads
    def test_children_forked_while_a_thread_draws_get_the_sequential_values(self):
        """A child forked while another thread is inside a normal or choice draw
        of its own stream draws at once: no engine, and so no engine's lock, is
        shared between threads, and a fork copies none of them held."""
        rng = RngStream(5)
        want = rng.normal(3), rng.choice(240, 32)
        stop = threading.Event()

        def spin():
            other = RngStream(6)
            while not stop.is_set():
                other.normal(256)
                other.choice(240, 32)

        spinner = threading.Thread(target=spin)
        spinner.start()
        pids, codes = [], []
        try:
            for _ in range(20):
                time.sleep(0.001)  # lets the spinner back into a draw
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        rng = RngStream(5)
                        code = 0 if (np.array_equal(rng.normal(3), want[0])
                                     and np.array_equal(rng.choice(240, 32), want[1])) else 1
                    finally:
                        os._exit(code)
                pids.append(pid)
        finally:
            stop.set()
            spinner.join(timeout=30)
            deadline = time.monotonic() + 30
            for pid in pids:
                while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and \
                        time.monotonic() < deadline:
                    time.sleep(0.01)
                if done[0] == 0:
                    os.kill(pid, 9)  # SIGKILL: the child hangs on a lock copied held
                    os.waitpid(pid, 0)
                    codes.append("hung")
                else:
                    codes.append(os.waitstatus_to_exitcode(done[1]))
        assert not spinner.is_alive()
        assert codes == [0] * len(pids)


_UINT64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


class TestMixSeedArrays:
    @settings(max_examples=200, deadline=None)
    @given(base=_UINT64, rows=st.lists(st.tuples(_UINT64, _UINT64, _UINT64), min_size=1,
                                       max_size=8))
    @example(base=2**64 - 1, rows=[(0, 2**63, 2**64 - 1), (2**64 - 1, 0, 2**63),
                                   (2**63, 2**64 - 1, 0)])
    def test_uint64_arrays_equal_int_calls(self, base, rows):
        cols = np.array(rows, dtype=np.uint64).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the arrays wrap without a warning
            by_index = mix_seed(base, *cols)  # an int base, array indices
            by_base = mix_seed(cols[0], *cols[1:])  # an array base, as a block's seeds
            base_only = mix_seed(cols[0])
        for got in (by_index, by_base, base_only):
            assert got.dtype == np.uint64 and got.shape == (len(rows),)
        assert by_index.tolist() == [mix_seed(base, *row) for row in rows]
        assert by_base.tolist() == [mix_seed(*row) for row in rows]
        assert base_only.tolist() == [mix_seed(row[0]) for row in rows]


_SIZES = st.one_of(st.none(), st.integers(0, 9), st.integers(0, 9).map(lambda k: (k,)),
                   st.integers(0, 9).map(lambda k: (k, 1)))
# bounds at the edges of numpy's branches: 32-bit draws up to 2**32 (buffered:
# they set has_uint32 and keep the other half of a Philox output), 64-bit ones
# above, and int64's largest range
_HIGHS = st.one_of(st.sampled_from([1, 2, 2**32 - 1, 2**32, 2**32 + 1, 2**63]),
                   st.integers(1, 2**63))
_INTEGERS = st.one_of(  # (high, size): a scalar bound, or one per column
    st.tuples(_HIGHS, st.one_of(st.none(), st.integers(0, 9))),
    st.lists(_HIGHS, min_size=1, max_size=4).flatmap(lambda highs: st.tuples(
        st.just(highs), st.one_of(st.none(), st.integers(0, 3).map(lambda k: (k, len(highs)))))))
# ((n, b), k) of choice(n, b), or of choices(n, b, k) when k is not None: b = 1,
# b = n, and n on both sides of the tail shuffle, n > 10000 and b > n // 50
_CHOICES = st.tuples(st.one_of(
    st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
        st.sampled_from([1, n]), st.integers(0, n)))),
    st.sampled_from([(10001, 200), (10001, 201), (10000, 201)])),
    st.one_of(st.none(), st.integers(0, 3)))
# (stream, draw, argument)
_DRAWS = st.lists(st.tuples(st.integers(0, 1), st.one_of(
    st.tuples(st.just("random"), _SIZES), st.tuples(st.just("normal"), _SIZES),
    st.tuples(st.just("integers"), _INTEGERS),
    st.tuples(st.just("choice"), _CHOICES))), max_size=16)
_END_OF_LOW_WORDS = (2**64 - 1, 2**64 - 1, 0, 0)  # the next block carries into word 2


class TestCompiledDraws:
    """RngStream's uniform, normal and choice draws, run by numpy's own
    distribution code in _lanes.c's library when it loads, give numpy's
    Generator(Philox) bits and state, mixed with each other and with integer
    draws, which go through numpy and leave half an output buffered, on two
    streams."""

    @settings(max_examples=300, deadline=None)
    @given(seeds=st.tuples(_UINT64, _UINT64), draws=_DRAWS,
           counter=st.sampled_from([(0, 0, 0, 0), _END_OF_LOW_WORDS, (2**64 - 2, 0, 0, 0),
                                    (2**64 - 1, 2**64 - 1, 2**64 - 1, 5)]))
    @example(seeds=(2**64 - 1, 0), counter=_END_OF_LOW_WORDS,
             draws=[(0, ("random", (9,))), (0, ("integers", (7, None))), (0, ("random", None)),
                    (1, ("random", (3, 1))), (0, ("normal", 2)), (0, ("random", 5))])
    @example(seeds=(3, 4), counter=(0, 0, 0, 0),
             draws=[(0, ("integers", ([2, 2**63, 2**32 - 1], (2, 3)))), (1, ("normal", None)),
                    (0, ("integers", (2**32 + 1, 3))), (0, ("normal", (3, 1))),
                    (1, ("integers", (2**32, None))), (0, ("integers", ([1, 2**32], None)))])
    @example(seeds=(5, 6), counter=(0, 0, 0, 0),
             draws=[(0, ("integers", (1000, None))), (0, ("choice", ((10001, 201), 2))),
                    (0, ("choice", ((10001, 200), None))), (1, ("integers", (7, None))),
                    (1, ("choice", ((40, 40), 3))), (1, ("choice", ((40, 1), None))),
                    (0, ("choice", ((10000, 201), 1)))])
    def test_draws_equal_numpy_generator(self, seeds, draws, counter):
        streams = [RngStream(s) for s in seeds]
        gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
        state = gens[0].bit_generator.state
        state["state"]["counter"] = np.array(counter, dtype=np.uint64)
        gens[0].bit_generator.state = state
        streams[0].state = gens[0].bit_generator.state
        for i, (name, arg) in draws:
            rng, gen = streams[i], gens[i]
            if name == "random":
                got, want = rng.random(arg), gen.random(arg)
            elif name == "normal":
                got, want = rng.normal(arg), gen.standard_normal(arg)
            elif name == "integers":
                got, want = rng.integers(0, *arg), gen.integers(0, *arg)
            elif arg[1] is None:
                got, want = rng.choice(*arg[0]), gen.choice(*arg[0], replace=False)
            else:
                (n, b), k = arg
                got = rng.choices(n, b, k)
                want = np.array([gen.choice(n, b, replace=False) for _ in range(k)],
                                np.int64).reshape(k, b)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        for rng, gen in zip(streams, gens):
            got, want = rng.state, gen.bit_generator.state
            for key in ("counter", "key"):
                assert np.array_equal(got["state"][key], want["state"][key])
            assert np.array_equal(got["buffer"], want["buffer"])
            assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == \
                [want[k] for k in ("buffer_pos", "has_uint32", "uinteger")]

    def test_returned_state_is_not_written_by_later_draws(self):
        rng = RngStream(3)
        rng.random(2)
        before = rng.state
        counter, buffer = before["state"]["counter"].copy(), before["buffer"].copy()
        rng.random(9)
        assert np.array_equal(before["state"]["counter"], counter)
        assert np.array_equal(before["buffer"], buffer) and before["buffer_pos"] == 2
