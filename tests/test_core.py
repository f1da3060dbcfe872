import contextlib
import copy
import ctypes
import math
import os
import pickle
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
import zlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avagrad_lab import _lanes, core
from avagrad_lab.core import (
    RngStream,
    Schedule,
    clamp_box,
    lane_draws,
    mix_seed,
    schedule_eval,
    write_csv,
)
from engines import buffer_half, numpy_engine, state_words


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
    def test_fixed_seed_reproduces_normal_sequence(self):
        a = RngStream(987654321).normal(256)
        b = RngStream(987654321).normal(256)
        assert a.tobytes() == b.tobytes()

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
        rng.random(1)  # with the library, makes the stream's own array of states
        buffer_half(rng)
        copies = [copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))]
        want = rng.random(3), rng.normal(5), rng.choice(240, 32)
        for other in copies:
            got = other.random(3), other.normal(5), other.choice(240, 32)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert state_words(other.state) == state_words(rng.state)

    def test_mix_seed_order_sensitive(self):
        assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
        assert mix_seed(1) != mix_seed(1, 0)

    def test_interleaved_streams_equal_their_own_generators(self):
        """Streams drawn in turn, each on its own state, give the bits of a
        Generator of their own, and keep the other half of a 32-bit draw
        buffered in every other stream (the first included) through them."""
        seeds = [0, 7, 2**63, 2**64 - 1]
        streams = [RngStream(s) for s in seeds]
        gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
        for rng, gen in list(zip(streams, gens))[::2]:
            gen.bit_generator.state = buffer_half(rng).state
        draws = [
            (lambda r: r.random(), lambda g: g.random()),
            (lambda r: r.normal(5), lambda g: g.standard_normal(5)),
            (lambda r: r.choice(240, 32), lambda g: g.choice(240, size=32, replace=False)),
            (lambda r: r.random((2, 3)), lambda g: g.random((2, 3))),
            (lambda r: r.normal(), lambda g: g.standard_normal()),
            (lambda r: r.choice(9, 9), lambda g: g.choice(9, size=9, replace=False)),
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
        rng = buffer_half(RngStream(8))
        before = rng.state
        with numpy_engine() if engine == "numpy" else contextlib.nullcontext():
            for draw in (lambda: rng.choice(n, size),
                         lambda: lane_draws([rng], "choice", 3, (size,), n)):
                with pytest.raises(ValueError) as got:
                    draw()
                assert str(got.value) == str(spec.value)
        assert rng.state == before

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    def test_choice_with_replacement_raises_and_draws_nothing(self, engine):
        if engine == "compiled" and _lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        rng = buffer_half(RngStream(8))
        before = state_words(rng.state)
        with numpy_engine() if engine == "numpy" else contextlib.nullcontext():
            with pytest.raises(ValueError, match="without replacement"):
                rng.choice(5, 2, replace=True)
        assert state_words(rng.state) == before

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
# ((n, b), k) of choice(n, b), or of k of them in one lane draw when k is not None: b = 1,
# b = n, and n on both sides of the tail shuffle, n > 10000 and b > n // 50
_CHOICES = st.tuples(st.one_of(
    st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
        st.sampled_from([1, n]), st.integers(0, n)))),
    st.sampled_from([(10001, 200), (10001, 201), (10000, 201)])),
    st.one_of(st.none(), st.integers(0, 3)))
# (stream, draw, argument)
_DRAWS = st.lists(st.tuples(st.integers(0, 1), st.one_of(
    st.tuples(st.just("random"), _SIZES), st.tuples(st.just("normal"), _SIZES),
    st.tuples(st.just("choice"), _CHOICES))), max_size=16)
_END_OF_LOW_WORDS = (2**64 - 1, 2**64 - 1, 0, 0)  # the next block carries into word 2


class TestCompiledDraws:
    """RngStream's uniform, normal and choice draws, run by numpy's own
    distribution code in _lanes.c's library when it loads, give numpy's
    Generator(Philox) bits and state, mixed with each other on two streams,
    either of which may start with the other half of a 32-bit draw
    buffered."""

    @settings(max_examples=300, deadline=None)
    @given(seeds=st.tuples(_UINT64, _UINT64), draws=_DRAWS,
           counter=st.sampled_from([(0, 0, 0, 0), _END_OF_LOW_WORDS, (2**64 - 2, 0, 0, 0),
                                    (2**64 - 1, 2**64 - 1, 2**64 - 1, 5)]),
           odd=st.tuples(st.booleans(), st.booleans()))
    @example(seeds=(2**64 - 1, 0), counter=_END_OF_LOW_WORDS, odd=(True, False),
             draws=[(0, ("random", (9,))), (0, ("random", None)),
                    (1, ("random", (3, 1))), (0, ("normal", 2)), (0, ("random", 5))])
    @example(seeds=(3, 4), counter=(0, 0, 0, 0), odd=(True, True),
             draws=[(0, ("random", (2, 3))), (1, ("normal", None)), (0, ("random", 3)),
                    (0, ("normal", (3, 1))), (1, ("random", None)), (0, ("normal", None))])
    @example(seeds=(5, 6), counter=(0, 0, 0, 0), odd=(True, True),
             draws=[(0, ("choice", ((10001, 201), 2))),
                    (0, ("choice", ((10001, 200), None))),
                    (1, ("choice", ((40, 40), 3))), (1, ("choice", ((40, 1), None))),
                    (0, ("choice", ((10000, 201), 1)))])
    def test_draws_equal_numpy_generator(self, seeds, draws, counter, odd):
        streams = [RngStream(s) for s in seeds]
        gens = [np.random.Generator(np.random.Philox(key=s)) for s in seeds]
        state = gens[0].bit_generator.state
        state["state"]["counter"] = np.array(counter, dtype=np.uint64)
        streams[0].state = state
        for rng, gen, skew in zip(streams, gens, odd):
            gen.bit_generator.state = (buffer_half(rng) if skew else rng).state
        for i, (name, arg) in draws:
            rng, gen = streams[i], gens[i]
            if name == "random":
                got, want = rng.random(arg), gen.random(arg)
            elif name == "normal":
                got, want = rng.normal(arg), gen.standard_normal(arg)
            elif arg[1] is None:
                got, want = rng.choice(*arg[0]), gen.choice(*arg[0], replace=False)
            else:
                (n, b), k = arg
                got = lane_draws([rng], "choice", k, (b,), n)[:, 0]
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


def odd_streams(n: int) -> list[RngStream]:
    """n streams, every other one (the first included) with the other half of a
    32-bit draw buffered."""
    streams = [RngStream(mix_seed(17, p)) for p in range(n)]
    for rng in streams[::2]:
        buffer_half(rng)
    return streams


def numpy_lane_step(g, kind: str, k: int, shape: tuple, n: int) -> np.ndarray:
    """One stream's k draws of lane_draws(kind), made by numpy's Generator g."""
    if kind == "uniform":
        return g.random((k, *shape))
    if kind == "normal":
        return g.standard_normal((k, *shape))
    return np.array([g.choice(n, *shape, replace=False) for _ in range(k)],
                    np.int64).reshape(k, *shape)


def engine_context(engine: str):
    if engine == "compiled" and _lanes.library() is None:
        pytest.skip("no C compiler: the library cannot be built")
    return numpy_engine() if engine == "numpy" else contextlib.nullcontext()


class TestLaneDraws:
    """One lane_draws call gives every stream the bits, and leaves it in the
    state, of its own Generator(Philox) making the same draws, under both
    engines."""

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @pytest.mark.parametrize("lanes", [0, 1, 3, 441])
    @pytest.mark.parametrize("kind, shape, n", [  # choice on both of numpy's branches
        ("uniform", (), 0), ("uniform", (2,), 0), ("normal", (3,), 0), ("normal", (2, 2), 0),
        ("choice", (5,), 40), ("choice", (201,), 10001)])
    def test_equal_each_streams_own_generator(self, kind, shape, n, lanes, engine):
        k = 3
        streams = odd_streams(lanes)
        gens = [np.random.Generator(np.random.Philox(0)) for _ in streams]
        for rng, g in zip(streams, gens):
            g.bit_generator.state = rng.state
        with engine_context(engine):
            got = lane_draws(streams, kind, k, shape, n)
        want = np.empty(got.shape, got.dtype)
        for p, g in enumerate(gens):
            want[:, p] = numpy_lane_step(g, kind, k, shape, n)
        assert got.shape == (k, lanes, *shape) and got.flags.c_contiguous
        assert got.dtype == (np.int64 if kind == "choice" else np.float64)
        assert got.tobytes() == want.tobytes()
        assert [state_words(r.state) for r in streams] == \
            [state_words(g.bit_generator.state) for g in gens]

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @pytest.mark.parametrize("kind, shape, n", [
        ("uniform", (-1,), 0), ("normal", (2, -3), 0), ("choice", (6,), 5), ("choice", (1,), 0),
        ("choice", (-1,), 5), ("choice", (0,), -1)])
    def test_rejected_shapes_raise_numpys_error_and_draw_nothing(self, kind, shape, n, engine):
        with pytest.raises(ValueError) as spec:
            numpy_lane_step(np.random.Generator(np.random.Philox(0)), kind, 2, shape, n)
        streams = odd_streams(3)
        before = [state_words(r.state) for r in streams]
        with engine_context(engine):
            with pytest.raises(ValueError) as got:
                lane_draws(streams, kind, 2, shape, n)
        assert str(got.value) == str(spec.value)
        assert [state_words(r.state) for r in streams] == before

    def test_single_draws_are_the_one_stream_case(self):
        """random, normal and choice of a stream equal a lane draw of it alone."""
        draws = [(lambda r: r.random((4, 2)), ("uniform", 1, (4, 2), 0)),
                 (lambda r: r.normal(3), ("normal", 1, (3,), 0)),
                 (lambda r: r.choice(50, 7), ("choice", 1, (7,), 50))]
        for single, (kind, k, shape, n) in draws:
            a, b = odd_streams(1), odd_streams(1)
            got, want = single(a[0]), lane_draws(b, kind, k, shape, n)
            assert got.tobytes() == want.tobytes()
            assert state_words(a[0].state) == state_words(b[0].state)


# edits of _lanes.c that its known answers catch: (text, replacement)
_SOURCE_MUTANTS = {
    "high_half_first": ("    s[S_UINT] = next >> 32;\n    return (uint32_t)next;",
                        "    s[S_UINT] = (uint32_t)next;\n    return (uint32_t)(next >> 32);"),
    "half_up": ("if (r > den - r || (r == den - r && (q & 1)))", "if (r >= den - r)"),
    "one_exponent_digit": ("        *o++ = (char)('0' + i / 10);\n",
                           "        if (i >= 10)\n            *o++ = (char)('0' + i / 10);\n"),
}


class TestLibraryCheck:
    def test_known_answers_are_numpys(self):
        """KNOWN_ANSWERS, drawn again by numpy's Generator(Philox) as
        _lanes._answers_hold describes them."""
        g = np.random.Generator(np.random.Philox(key=7))
        floats = (*g.random(2).tolist(), *g.standard_normal(2).tolist())
        picks = g.choice(30, 4, replace=False).tolist()
        tail = g.choice(10001, 201, replace=False).astype("<i8")
        lane = [np.random.Generator(np.random.Philox(key=key)) for key in (8, 9)]
        state = lane[0].bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0xDEADBEEF
        lane[0].bit_generator.state = state
        for _ in range(2):
            for h in lane:
                picks += h.choice(30, 4, replace=False).tolist()
        assert _lanes.KNOWN_ANSWERS[:3] == (floats, tuple(picks), zlib.crc32(tail.tobytes()))

    def test_csv_known_answer_is_pythons(self):
        """The formatter's entry of KNOWN_ANSWERS, printed again by Python's %,
        and CSV_ROW holds the cases it names: an exact tie at the 18th digit,
        a double below 10^-14 that rounds up to it, and last a value out of
        the integer method's range, which is declined as cell 6."""
        text = ",".join("%.17g" % v for v in _lanes.CSV_ROW[:-1]) + "\n"
        assert _lanes.KNOWN_ANSWERS[3] == (text.encode(), -1 - 6)
        tie = Decimal(_lanes.CSV_ROW[0]).as_tuple().digits  # exact: 18 digits, the 17th even
        assert len(tie) == 18 and tie[-1] == 5 and tie[-2] % 2 == 0
        assert Decimal(_lanes.CSV_ROW[1]) < Decimal("1e-14")
        assert abs(_lanes.CSV_ROW[-1]) > 1e47

    @pytest.mark.parametrize("mutant", [None, "high_half_first", "half_up", "one_exponent_digit"],
                             ids=["as_shipped", "high_half_first", "half_up", "one_exponent_digit"])
    def test_library_that_misses_an_answer_is_refused(self, mutant, tmp_path, monkeypatch):
        """A library built from a source whose 32-bit draw returns the high half
        of an output first, or whose formatter rounds ties up or prints a
        single exponent digit, is refused at load, and every draw still equals
        numpy's; built from the source as shipped, the same load keeps it."""
        if _lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        source = _lanes.SOURCE.read_text()
        if mutant:
            old, new = _SOURCE_MUTANTS[mutant]
            assert old in source
            source = source.replace(old, new)
        (tmp_path / "_lanes.c").write_text(source)
        monkeypatch.setattr(_lanes, "SOURCE", tmp_path / "_lanes.c")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _lanes.library.cache_clear()
        try:
            assert (_lanes.library() is None) == bool(mutant)
            streams = odd_streams(3)
            gens = [np.random.Generator(np.random.Philox(0)) for _ in streams]
            for rng, g in zip(streams, gens):
                g.bit_generator.state = rng.state
            got = [streams[0].choice(240, 32), streams[1].random(3), streams[2].normal(2),
                   lane_draws(streams, "choice", 2, (5,), 40)]
            want = [gens[0].choice(240, 32, replace=False), gens[1].random(3),
                    gens[2].standard_normal(2),
                    np.stack([numpy_lane_step(g, "choice", 2, (5,), 40) for g in gens], axis=1)]
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        finally:
            _lanes.library.cache_clear()


def per_field_row(row) -> str:
    """A CSV row as write_csv formatted it field by field before its templates."""
    return ",".join([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]) + "\n"


_FIELDS = [
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e308, -1e308, 0.1, 1 / 3]),
    st.integers(-2**70, 2**70), st.booleans(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),  # "%" included
    st.sampled_from(["%s", "%.17g", "%%", "a,b"]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(np.float64),
    st.sampled_from([math.nan, -0.0, 5e-324, 1e308, -math.inf]).map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
]


class TestWriteCsv:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), columns=st.lists(st.sampled_from(_FIELDS), max_size=7))
    def test_bytes_equal_the_per_field_formula(self, data, columns):
        """Rows that share a tuple of field types (as an export's do), mixed with
        rows of any others, list and tuple rows alike."""
        rows = data.draw(st.lists(st.one_of(st.tuples(*columns),
                                            st.lists(st.one_of(*_FIELDS), max_size=7)),
                                  max_size=12))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "rows.csv")
            write_csv(path, ("a", "b"), rows, "rows")
            with open(path, "rb") as fh:
                got = fh.read()
        assert got == ("a,b\n" + "".join(map(per_field_row, rows))).encode("utf-8")

    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(0, 9), st.integers(0, 4)))
    def test_float_table_bytes_equal_the_per_field_formula(self, engine, data, shape):
        """A 2-D float64 array, three rows a chunk, with any float (one that
        the formatter declines among them) in up to two cells: the bytes of
        its rows as lists of floats."""
        values = st.floats(-1e40, 1e40)
        table = np.array(data.draw(st.lists(values, min_size=shape[0] * shape[1],
                                            max_size=shape[0] * shape[1])), np.float64)
        for _ in range(data.draw(st.integers(0, 2)) if table.size else 0):
            table[data.draw(st.integers(0, table.size - 1))] = data.draw(st.floats())
        table = table.reshape(shape)
        with engine_context(engine), pytest.MonkeyPatch.context() as mp, \
                tempfile.TemporaryDirectory() as tmp:
            mp.setattr(core, "_CHUNK_ROWS", 3)
            path = os.path.join(tmp, "table.csv")
            write_csv(path, ("a", "b"), table, "table")
            with open(path, "rb") as fh:
                got = fh.read()
        assert got == ("a,b\n" + "".join(map(per_field_row, table.tolist()))).encode("utf-8")

    def test_chunks_of_a_strided_table(self, tmp_path, monkeypatch):
        """A strided (not C-contiguous) view of two and a half chunks, with a
        nan in the second: one csv_g17 call a chunk, the second declined at
        the nan's cell and printed by the templates, the bytes the formula's."""
        lib = _lanes.library()
        if lib is None:
            pytest.skip("no C compiler: the library cannot be built")
        calls = []

        class Counted:
            def csv_g17(self, *args):
                calls.append(lib.csv_g17(*args))
                return calls[-1]

        monkeypatch.setattr(_lanes, "library", Counted)
        n = core._CHUNK_ROWS
        lanes = np.random.default_rng(5).normal(size=(2 * n + n // 2, 7, 2))
        lanes[:, 0] = np.arange(1, len(lanes) + 1)[:, None]
        lanes[n + 7, 3, 1] = math.nan
        table = lanes[:, :, 1]
        write_csv(tmp_path / "t.csv", ("a",), table, "table")
        want = "a\n" + "".join(per_field_row([int(row[0]), *row[1:]]) for row in table.tolist())
        assert (tmp_path / "t.csv").read_bytes() == want.encode()
        assert calls[0] > 0 and calls[1] == -1 - (7 * 7 + 3) and calls[2] > 0 and len(calls) == 3

    @pytest.mark.parametrize("engine, rows", [("compiled", 200_000), ("numpy", 20_000)])
    def test_memory_does_not_grow_with_rows(self, engine, rows):
        """tracemalloc's peak while writing a (rows, 7) table, whose text is
        about 3 MB every 20,000 rows: a chunk's buffers (0.8-0.95 MB), not the
        file's. The templates take 0.35 ms a row under tracemalloc, so the
        numpy engine writes fewer."""
        table = np.random.default_rng(1).normal(size=(rows, 7))
        with engine_context(engine):
            tracemalloc.start()
            try:
                write_csv(os.devnull, ("a",), table, "table")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2e6


@pytest.fixture(scope="module")
def g17():
    """One value through csv_g17 of the built library, loaded without the
    known-answer check, so a formatter that misses one fails here instead of
    leaving write_csv on its templates: the printed field, or None when the
    call declines the value."""
    try:
        lib = ctypes.CDLL(str(_lanes._build(_lanes.CC, _lanes.cache_dir())))
    except OSError:
        pytest.skip("no C compiler: the formatter cannot be built")
    lib.csv_g17.argtypes, lib.csv_g17.restype = _lanes._ARGTYPES["csv_g17"], ctypes.c_int64
    text = bytearray(24)
    out = ctypes.byref(ctypes.c_char.from_buffer(text))

    def fmt(x: float) -> str | None:
        size = lib.csv_g17(1, 1, np.array([x]).ctypes.data, out)
        if size < 0:
            assert size == -1
            return None
        assert text[size - 1:size] == b"\n"
        return text[:size - 1].decode("ascii")

    return fmt


def assert_g17(fmt, x: float) -> None:
    """fmt prints x as '%.17g' % x does, or declines it, and declines only
    inf, nan or a nonzero value outside [1e-15, 1e47] in magnitude (the
    subnormals among them)."""
    got = fmt(x)
    if got is None:
        assert not math.isfinite(x) or 0 < abs(x) < 1e-15 or abs(x) > 1e47, x
    else:
        assert got == "%.17g" % x, x


def _ulps(x: float):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


# odd M / 2^j whose exact decimal has 18 significant digits, ending in 5: a
# tie at 17 digits for each j, with a 17th digit both odd and even
_TIES = [m / 2**j for j in range(2, 24)
         for m in (10**17 // 5**j + 1 | 1, 10**17 // 5**j + 3 | 1, 10**17 // 5**j + 5 | 1)
         if m < 2**53 and len(str(m * 5**j)) == 18]


class TestCsvFormatter:
    @settings(max_examples=400, deadline=None)
    @given(bits=st.integers(0, 2**64 - 1))
    @example(bits=0)
    @example(bits=2**63)  # -0
    @example(bits=1)  # subnormals
    @example(bits=2**63 + 2**52 - 1)
    @example(bits=0x7FF << 52)  # inf, -inf, nan
    @example(bits=0xFFF << 52)
    @example(bits=0x7FF8 << 48)
    def test_raw_bit_patterns(self, g17, bits):
        assert_g17(g17, float(np.uint64(bits).view(np.float64)))

    @settings(max_examples=400, deadline=None)
    @given(x=st.floats(1e-16, 1e48), negative=st.booleans())
    def test_values_in_range(self, g17, x, negative):
        assert_g17(g17, -x if negative else x)

    def test_powers_of_ten_and_their_neighbours(self, g17):
        for k in range(-30, 61):
            for x in _ulps(float(f"1e{k}")):
                assert_g17(g17, x)
                assert_g17(g17, -x)
        assert g17(1e-05) == "1.0000000000000001e-05" and g17(1e17) == "1e+17"

    def test_ties_round_half_to_even(self, g17):
        digits = {Decimal(x).as_tuple().digits[16] % 2 for x in _TIES}
        assert len(_TIES) > 40 and digits == {0, 1}  # ties that round down and up
        for x in _TIES:
            assert g17(x) is not None
            assert_g17(g17, x)
            assert_g17(g17, -x)

    def test_integers(self, g17):
        for i in range(65):
            for t in (2**i - 1, 2**i, 2**i + 1):
                assert_g17(g17, float(t))
        for t in np.random.default_rng(3).integers(0, 2**63, 2000).tolist():
            assert_g17(g17, float(t))

    def test_round_up_to_ten_to_the_17(self, g17):
        """A double just below a power of ten that 17 digits round up to it:
        1e-14 in range, the others declined."""
        for x in (1e-14, 1e-79, 1e-70, 1e+98, 1e+129):
            assert Decimal(x) < Decimal(f"{x:e}")
            assert_g17(g17, x)
        assert g17(1e-14) == "1e-14"
