import contextlib
import copy
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avagrad_lab
from avagrad_lab.core import RngStream
from avagrad_lab.mlp import LabeledSet, gaussian_blobs, load_csv_dataset, mlp_make
from avagrad_lab.problems import COMMON, RARE, fd_check, quadratic_make, synth_make
from engines import buffer_half, child_env, numpy_engine, other_cpu_kernels, state_words
from reference_impl import mlp_dataset_error, mlp_dataset_loss, mlp_grad


class TestSynthProblem:
    def test_paper_scale_probability(self):
        prob = synth_make(999.0, 1.0)
        assert prob.p == 0.002

    def test_stationary_point_location(self):
        prob = synth_make(999.0, 1.0)
        assert prob.w_star == pytest.approx(0.998 / 1.998, rel=1e-15)
        assert prob.w_star == pytest.approx(0.4995, abs=1e-3)

    def test_gradient_norm_at_right_edge_equals_delta(self):
        prob = synth_make(999.0, 1.0)
        fg = prob.full_grad(np.array([1.0]))
        assert fg[0] == pytest.approx(1.0, rel=1e-12)
        assert fg[0] ** 2 == pytest.approx(prob.delta, rel=1e-12)

    def test_full_gradient_is_two_outcome_expectation(self):
        prob = synth_make(999.0, 1.0)
        rng = np.random.default_rng(1)
        for w0 in rng.random(100):
            w = np.array([w0])
            expectation = prob.p * (prob.big_c * w) + (1.0 - prob.p) * np.full(1, -1.0)
            fg = prob.full_grad(w)
            assert abs(fg[0] - expectation[0]) <= 1e-15 * max(1.0, abs(expectation[0]))

    def test_stationarity(self):
        prob = synth_make(999.0, 1.0)
        assert abs(prob.full_grad(np.array([prob.w_star]))[0]) <= 1e-12

    def test_objective_matches_outcome_expectation(self):
        prob = synth_make(999.0, 1.0)
        w = np.array([0.3])
        manual = sum(p * prob.loss(w, tok) for p, tok in prob.outcomes())
        assert prob.objective(w) == pytest.approx(manual, rel=1e-14)

    def test_sampler_frequency(self):
        prob = synth_make(999.0, 1.0)
        rng = RngStream(20240)
        draws = 10**6
        rare = sum(1 for _ in range(draws) if prob.sample(rng) == RARE)
        sigma = math.sqrt(draws * prob.p * (1 - prob.p))
        assert abs(rare - draws * prob.p) <= 4 * sigma

    def test_constants(self):
        prob = synth_make(999.0, 1.0)
        consts = prob.constants(np.array([1.0]))
        assert consts.m_smooth == pytest.approx(prob.p * 999.0, rel=1e-15)
        assert consts.g_inf == 999.0 and consts.g_2 == 999.0
        gap = prob.objective(np.array([1.0])) - prob.objective(np.array([prob.w_star]))
        assert consts.d_gap == pytest.approx(gap, rel=1e-15) and consts.d_gap > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            synth_make(0.5, 1.0)  # C <= 1
        with pytest.raises(ValueError):
            synth_make(999.0, -0.1)  # negative delta
        with pytest.raises(ValueError):
            synth_make(999.0, 0.0)  # C > (1-p)/p fails at delta = 0
        with pytest.raises(ValueError):
            synth_make(2.0, 5.0)  # p = 2 outside (0, 1)

    def test_grad_and_full_grad_match_float_formulas(self):
        """grad and full_grad give the bits of the float formulas, on lanes and
        single vectors."""
        prob = synth_make(999.0, 1.0)
        rng = np.random.default_rng(8)
        for w in (np.zeros((5, 1)), np.ones((5, 1)), rng.random((5, 1)), rng.random(1),
                  np.array([0.0]), np.array([1.0])):
            token = rng.random(w.shape) < 0.5
            want = np.where(token, prob.big_c * w, -1.0)
            assert prob.grad(w, token).tobytes() == want.tobytes()
            want = prob.mean_slope * w - prob.mean_offset
            assert prob.full_grad(w).tobytes() == want.tobytes()
        assert isinstance(prob.big_c, float) and isinstance(prob.mean_slope, float)

    def test_grad_deterministic_given_token(self):
        prob = synth_make(999.0, 1.0)
        w = np.array([0.25])
        assert np.array_equal(prob.grad(w, RARE), prob.grad(w, RARE))
        assert np.array_equal(prob.grad(w, COMMON), np.array([-1.0]))


class TestQuadraticProblem:
    def test_full_grad_example(self):
        prob = quadratic_make([2.0], 0.0, [0.0])
        assert np.array_equal(prob.full_grad(np.array([3.0])), [6.0])

    def test_smoothness_is_max_curvature(self):
        prob = quadratic_make([1.0, 4.0])
        assert prob.constants(np.ones(2)).m_smooth == 4.0

    def test_monte_carlo_mean_gradient(self):
        c = np.array([1.0, 3.0])
        prob = quadratic_make(c, 0.5, [0.2, -0.4])
        rng = RngStream(99)
        w = np.array([1.0, 1.0])
        n = 10**5
        acc = np.zeros(2)
        for _ in range(n):
            acc += prob.grad(w, prob.sample(rng))
        band = 3.0 * (0.5 * c / math.sqrt(n))  # CLT: grad noise std is noise_std * c
        assert np.all(np.abs(acc / n - prob.full_grad(w)) <= band)

    def test_zero_noise_sample_is_exact_minimiser(self):
        prob = quadratic_make([1.0, 2.0], 0.0, [0.5, -0.5])
        token = prob.sample(RngStream(0))
        assert np.array_equal(token, [0.5, -0.5])

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(ValueError):
            quadratic_make([1.0, 0.0])

    @pytest.mark.parametrize("noise_std", [-0.1, math.nan, math.inf])
    def test_noise_std_must_be_finite_and_non_negative(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            quadratic_make([1.0, 2.0], noise_std)

    def test_objective_gap_positive(self):
        prob = quadratic_make([2.0, 1.0], 0.3, [0.0, 0.0])
        consts = prob.constants(np.array([1.0, 1.0]))
        assert consts.d_gap == pytest.approx(0.5 * (2.0 + 1.0), rel=1e-12)

    def test_huge_finite_iterate_gives_inf_without_a_warning(self):
        prob = quadratic_make([1.0, 2.0], 0.1, [0.0, -1.0])
        w = np.array([1e200, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert prob.objective(w) == math.inf
            assert prob.loss(w, prob.sample(RngStream(0))) == math.inf

    def test_sample_lanes_equals_each_streams_chunk(self):
        prob = quadratic_make([1.0, 2.0, 3.0], 0.5)
        tokens = prob.sample_lanes([RngStream(s) for s in (4, 5)], 6)
        assert tokens.shape == (6, 2, 3)
        for p, seed in enumerate((4, 5)):
            assert np.array_equal(tokens[:, p], prob.sample(RngStream(seed), 6))


class TestGaussianBlobs:
    def test_two_far_blobs(self):
        data = gaussian_blobs(50, 2, 2, 10.0, RngStream(4))
        mean0 = data.features[data.labels == 0].mean(axis=0)
        mean1 = data.features[data.labels == 1].mean(axis=0)
        dist = float(np.linalg.norm(mean0 - mean1))
        assert abs(dist - 20.0) < 1.0

    def test_zero_separation_centers_coincide(self):
        data = gaussian_blobs(200, 3, 2, 0.0, RngStream(5))
        for k in range(3):
            center = data.features[data.labels == k].mean(axis=0)
            assert np.all(np.abs(center) < 0.3)

    def test_deterministic_under_seed(self):
        a = gaussian_blobs(10, 3, 4, 2.0, RngStream(7))
        b = gaussian_blobs(10, 3, 4, 2.0, RngStream(7))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_one_dimensional_pattern(self):
        data = gaussian_blobs(5, 2, 1, 8.0, RngStream(8))
        assert data.features.shape == (10, 1)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            gaussian_blobs(0, 2, 2, 1.0, RngStream(0))


def small_mlp(batch_size=4, n_hidden=5, seed=12):
    data = gaussian_blobs(12, 3, 2, 2.0, RngStream(seed))
    return mlp_make(2, n_hidden, 3, data, batch_size=batch_size)


class TestMlpProblem:
    def test_zero_weights_two_classes_gives_log2(self):
        data = LabeledSet(np.array([[0.3, -0.2]]), np.array([1]))
        prob = mlp_make(2, 4, 2, data, batch_size=1)
        loss = prob.loss(np.zeros(prob.dim), np.array([0]))
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_dimension_formula(self):
        prob = small_mlp(n_hidden=7)
        assert prob.dim == (2 + 1) * 7 + (7 + 1) * 3

    def test_full_batch_grad_equals_full_grad(self):
        prob = small_mlp()
        rng = RngStream(3)
        w = 0.5 * rng.normal(prob.dim)
        token = np.arange(len(prob.dataset))
        assert np.array_equal(prob.grad(w, token), prob.full_grad(w))

    def test_grad_deterministic_given_token(self):
        prob = small_mlp()
        w = 0.1 * RngStream(1).normal(prob.dim)
        token = prob.sample(RngStream(2))
        assert np.array_equal(prob.grad(w, token), prob.grad(w, token))

    def test_gradient_passes_fd_check_20_points(self):
        prob = small_mlp()
        rng = RngStream(77)
        for _ in range(20):
            w = rng.normal(prob.dim)
            w /= max(1.0, float(np.linalg.norm(w)))
            token = prob.sample(rng)
            assert fd_check(prob, w, token, h=1e-5) <= 1e-5

    def test_dataset_error_perfect_vs_chance(self):
        # far-separated blobs: a trained-free linear-ish solution is not needed,
        # just check the error metric is sane on constant predictions
        prob = small_mlp()
        err = prob.dataset_error(np.zeros(prob.dim), prob.dataset)
        assert 0.0 <= err <= 1.0

    def test_dataset_dimension_mismatch(self):
        data = gaussian_blobs(5, 2, 3, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            mlp_make(2, 4, 2, data)

    def test_label_out_of_range(self):
        data = LabeledSet(np.zeros((2, 2)), np.array([0, 5]))
        with pytest.raises(ValueError):
            mlp_make(2, 4, 2, data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.bool_])
    def test_non_integer_labels_rejected(self, dtype):
        # float labels once built a network whose objective raised IndexError
        with pytest.raises(ValueError, match="integer dtype"):
            LabeledSet(np.zeros((6, 2)), np.array([0, 1, 2, 0, 1, 2]).astype(dtype))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_any_integer_labels_accepted(self, dtype):
        data = LabeledSet(np.zeros((6, 2)), np.array([0, 1, 2, 0, 1, 2], dtype=dtype))
        prob = mlp_make(2, 3, 3, data, 2)
        assert prob.objective(np.zeros(prob.dim)) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_batch_size_bounds(self):
        data = gaussian_blobs(2, 2, 2, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            mlp_make(2, 4, 2, data, batch_size=5)


def assert_same_bits(got, want):
    """Equal values, shapes and dtypes, with NaN equal to NaN, and the same sign
    bit on every non-NaN entry. A NaN's sign is exempt: the rewritten oracle
    and the plain formulas may reach a NaN by different operations once an
    input is infinite, and no output shows the sign of a NaN, which prints as
    nan either way and diverges the lane that meets it."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    real = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[real]), np.signbit(want[real])), (got, want)


@st.composite
def mlp_oracle_cases(draw):
    """Arguments of assert_mlp_oracle_bits: up to 12 classes, so the softmax
    sum runs numpy's 8-accumulator branch too, and in half the cases one
    infinite weight in one of the four blocks."""
    dims = n_in, h, k = draw(st.integers(1, 4)), draw(st.integers(1, 20)), draw(st.integers(1, 12))
    n_rows = draw(st.integers(1, 40))
    batch = draw(st.integers(1, n_rows))
    lanes = draw(st.one_of(st.none(), st.integers(1, 5)))
    log_scale, rounded = draw(st.floats(-3.0, 3.0)), draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    inf = None
    if draw(st.booleans()):
        blocks = [(0, n_in * h), (n_in * h, h), (n_in * h + h, h * k), ((n_in + 1 + k) * h, k)]
        start, size = draw(st.sampled_from(blocks))
        inf = (start + draw(st.integers(0, size - 1)), draw(st.sampled_from([np.inf, -np.inf])))
    return dims, n_rows, batch, lanes, log_scale, rounded, seed, inf


def assert_mlp_oracle_bits(dims, n_rows, batch, lanes, log_scale, rounded, seed, inf=None):
    """grad, full_grad, loss, objective and the dataset metrics of a network of
    `dims` on `n_rows` random rows give the bits of the plain formulas. The
    weights are `lanes` lanes (None: one 1-D w) at scale 10**log_scale,
    rounded if `rounded`, with `inf` = (coordinate, value) set in lane 0."""
    n_in, n_hidden, n_classes = dims
    gen = np.random.default_rng(seed)
    dataset = LabeledSet(gen.normal(size=(n_rows, n_in)), gen.integers(0, n_classes, n_rows))
    prob = mlp_make(n_in, n_hidden, n_classes, dataset, batch_size=batch)
    w = gen.normal(size=(prob.dim,) if lanes is None else (lanes, prob.dim))
    w *= 10.0 ** log_scale
    if rounded:  # tied and zero logits, and signed zeros
        w = np.round(w)
    if inf is not None:
        w.reshape(-1, prob.dim)[0, inf[0]] = inf[1]
    token = np.stack([gen.permutation(n_rows)[:batch] for _ in range(lanes or 1)])
    token = token[0] if lanes is None else token
    holdout = LabeledSet(gen.normal(size=(n_rows, n_in)), gen.integers(0, n_classes, n_rows))
    feats, labels = dataset.features, dataset.labels
    one = token if lanes is None else token[0]
    with np.errstate(all="ignore"):
        assert_same_bits(prob.grad(w, token), mlp_grad(w, feats, labels, token, dims))
        assert_same_bits(prob.full_grad(w), mlp_grad(w, feats, labels, np.arange(n_rows), dims))
        assert_same_bits(prob.loss(w, one), mlp_dataset_loss(w, feats[one], labels[one], dims))
        assert_same_bits(prob.objective(w), mlp_dataset_loss(w, feats, labels, dims))
        for metric, plain in ((prob.dataset_loss, mlp_dataset_loss),
                              (prob.dataset_error, mlp_dataset_error)):
            assert_same_bits(metric(w, holdout), plain(w, holdout.features, holdout.labels, dims))


def mlp_parity_slice(seed, count):
    """assert_mlp_oracle_bits on `count` cases drawn from numpy's generator at
    `seed`, a quarter of them at the sweep's network and block width."""
    gen = np.random.default_rng(seed)
    for i in range(count):
        dims = tuple(int(gen.integers(1, top + 1)) for top in (4, 20, 12))
        n_rows = int(gen.integers(1, 41))
        batch, lanes = int(gen.integers(1, n_rows + 1)), [None, 1, 5, 74][i % 4]
        if lanes == 74:
            dims, n_rows, batch = (2, 16, 3), 40, 32
        dim = (dims[0] + 1) * dims[1] + (dims[1] + 1) * dims[2]
        inf = (int(gen.integers(dim)), np.inf) if gen.random() < 0.2 else None
        assert_mlp_oracle_bits(dims, n_rows, batch, lanes, float(gen.uniform(-3.0, 3.0)),
                               bool(gen.random() < 0.3), int(gen.integers(2**32)), inf)


class TestMlpOracleBits:
    """grad, full_grad, loss and the dataset metrics give the bits of the
    plain formulas in reference_impl."""

    @settings(max_examples=300, deadline=None)
    @given(case=mlp_oracle_cases())
    # the sweep's block widths; a width of 1 in each place where numpy's @ or
    # batch sum changes path; 8 classes, numpy's 8-accumulator softmax sum
    @example(case=((2, 16, 3), 40, 32, 74, 0.0, False, 1, None))
    @example(case=((2, 16, 3), 40, 32, 125, 0.0, False, 2, None))
    @example(case=((1, 3, 3), 40, 32, 74, 0.0, False, 3, None))
    @example(case=((2, 1, 3), 40, 32, 74, 0.0, False, 4, None))
    @example(case=((2, 16, 1), 40, 32, 74, 0.0, False, 5, None))
    @example(case=((2, 16, 3), 40, 1, 74, 0.0, False, 6, None))
    @example(case=((2, 16, 8), 40, 32, 74, 0.0, False, 7, None))
    def test_matches_plain_formulas(self, case):
        assert_mlp_oracle_bits(*case)

    def test_matches_plain_formulas_under_other_cpu_kernels(self):
        """A fixed slice of the parity cases, rerun in child processes under
        the BLAS kernels of older CPUs and under numpy's AVX2 loops. Each
        child compares the oracle with the plain formulas itself, so the test
        holds on any machine; a kernel set the CPU cannot run is left out."""
        envs = other_cpu_kernels()
        if not envs:
            pytest.skip("this CPU runs none of the other kernel sets")
        code = ("import sys, engines, test_problems as t; "
                "from numpy._core import _multiarray_umath as m; "
                "t.mlp_parity_slice(int(sys.argv[1]), 100); print(engines.openblas_core(), "
                "*[f for f in m.__cpu_dispatch__ if m.__cpu_features__[f]])")
        procs = [subprocess.Popen([sys.executable, "-c", code, str(seed)], text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  env=child_env(name, value))
                 for seed, (name, value) in enumerate(envs)]
        for (name, value), proc in zip(envs, procs):
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, (name, value, err)
            core, *dispatch = out.split()
            if name == "OPENBLAS_CORETYPE":
                assert core in (value, "None"), (value, out)
            else:
                assert not set(value.split()) & set(dispatch), (value, out)


def index_mlp(n, batch_size):
    """An MLP over n rows of one feature: all its sampling sees is n and the batch size."""
    return mlp_make(1, 1, 1, LabeledSet(np.zeros((n, 1)), np.zeros(n, dtype=np.int64)),
                    batch_size)


def lane_streams(seeds, odd):
    """One stream per seed; where `odd` is true, with the other half of a 32-bit
    draw buffered."""
    streams = [RngStream(s) for s in seeds]
    for rng, skew in zip(streams, odd):
        if skew:
            buffer_half(rng)
    return streams


def assert_bulk_draw_equals_single_draws(n, b, k, seeds, odd):
    """sample_lanes equals k Generator.choice draws per stream, stacked, made by
    a numpy Generator(Philox) loaded with the stream's state, and leaves every
    stream in the state that Generator is left in."""
    streams = lane_streams(seeds, odd)
    gens = [np.random.Generator(np.random.Philox(0)) for _ in streams]
    for rng, gen in zip(streams, gens):
        gen.bit_generator.state = rng.state
    got = index_mlp(n, b).sample_lanes(streams, k)
    want = np.stack([np.stack([gen.choice(n, b, replace=False) for _ in range(k)])
                     for gen in gens], axis=1)
    assert got.shape == want.shape == (k, len(seeds), b) and got.dtype == want.dtype
    assert got.flags.c_contiguous and np.array_equal(got, want)
    for rng, gen in zip(streams, gens):
        assert state_words(rng.state) == state_words(gen.bit_generator.state)


class TestMlpSampleLanes:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300), data=st.data(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    def test_bulk_draw_equals_single_choice_draws(self, n, data, seeds):
        b = data.draw(st.integers(1, min(n, 48)), label="batch")
        k = data.draw(st.integers(1, 9), label="steps")
        odd = data.draw(st.lists(st.booleans(), min_size=len(seeds), max_size=len(seeds)),
                        label="odd halves")
        assert_bulk_draw_equals_single_draws(n, b, k, seeds, odd)

    @pytest.mark.parametrize("batch", [200, 201])
    def test_tail_shuffle_boundary(self, batch):
        # numpy draws (10001, 200) by Floyd's algorithm and (10001, 201) by a tail shuffle
        assert_bulk_draw_equals_single_draws(10001, batch, 70, [7, 8, 9], [False, True, False])

    def test_whole_population_single_index_and_few_draws(self):
        assert_bulk_draw_equals_single_draws(12, 12, 6, [1, 2], [True, False])
        assert_bulk_draw_equals_single_draws(12, 1, 4, [1, 2], [True, False])
        assert_bulk_draw_equals_single_draws(12, 12, 5, [1, 2], [True, False])  # k < b

    def test_sample_k_equals_k_single_draws(self):
        prob = small_mlp(batch_size=5)
        bulk, single = RngStream(31), RngStream(31)
        chunk = prob.sample(bulk, 7)
        assert np.array_equal(chunk, np.stack([prob.sample(single) for _ in range(7)]))
        assert np.array_equal(prob.sample(bulk), prob.sample(single))

    @pytest.mark.parametrize("k", [16, 1024])
    def test_draw_memory_is_one_table_whatever_the_draw_count(self, k):
        # one 500,000-index table is 4 MB; a table for each of k draws at once, k times that
        n, seeds = 500_000, [3, 4, 5, 6]
        prob = index_mlp(n, 16)
        prob.sample_lanes(lane_streams(seeds, [False] * 4), 2)  # lazy numpy imports first
        streams = lane_streams(seeds, [False] * 4)
        tracemalloc.start()
        try:
            tokens = prob.sample_lanes(streams, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one int64 table a call, the streams' (k, 16) draws, and their stack
        assert peak <= 8 * n + 2 * tokens.nbytes + (1 << 16), peak
        assert_bulk_draw_equals_single_draws(n, 16, 16, seeds, [True, False, True, False])


def sampling_problems():
    """A problem of each kind, by the name of its draw."""
    return {"uniform": synth_make(999.0, 1.0),
            "normal": quadratic_make([1.0, 2.0, 3.0], 0.5, [0.1, -0.2, 0.3]),
            "choice": index_mlp(70, 6)}


class TestSampleLanes:
    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @pytest.mark.parametrize("kind", ["uniform", "normal", "choice"])
    @pytest.mark.parametrize("lanes", [1, 5])
    def test_equal_each_streams_sample(self, kind, lanes, engine):
        """sample_lanes equals each stream's sample(rng, k), drawn on a copy of
        it, and leaves each stream as that copy; synth tokens are the
        C-contiguous bool (k, n, 1) array that the compiled loop reads."""
        if engine == "compiled" and avagrad_lab._lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        prob, k = sampling_problems()[kind], 7
        streams = lane_streams(range(lanes), [p % 2 == 0 for p in range(lanes)])
        copies = copy.deepcopy(streams)
        with numpy_engine() if engine == "numpy" else contextlib.nullcontext():
            got = prob.sample_lanes(streams, k)
            want = np.stack([prob.sample(rng, k) for rng in copies], axis=1)
        assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert [state_words(r.state) for r in streams] == [state_words(r.state) for r in copies]
        if kind == "uniform":
            assert got.dtype == np.bool_ and got.shape == (k, lanes, 1)

    def test_one_compiled_call_draws_every_lane(self, monkeypatch):
        lib = avagrad_lab._lanes.library()
        if lib is None:
            pytest.skip("no C compiler: the library cannot be built")
        calls = []
        for name in ("philox_uniform", "philox_normal", "philox_choice"):
            def counted(*args, draw=getattr(lib, name), name=name):
                calls.append((name, args[0]))
                return draw(*args)
            monkeypatch.setattr(lib, name, counted)
        for prob in sampling_problems().values():
            prob.sample_lanes(lane_streams(range(441), [False] * 441), 14)
        assert calls == [("philox_uniform", 441), ("philox_normal", 441), ("philox_choice", 441)]


class TestLaneMetrics:
    """A metric of lanes w (n, d), one call for the block, equals its calls on
    each lane bit for bit."""

    @staticmethod
    def assert_lanes_match(metric, w):
        got, want = metric(w), [metric(row) for row in w]
        assert all(type(v) is float for v in want)
        assert got.dtype == np.float64 and got.shape == (len(w),)
        assert got.tobytes() == np.array(want).tobytes()
        return got

    def test_synth_objective(self):
        prob = synth_make(999.0, 1.0)
        self.assert_lanes_match(prob.objective, np.linspace(0.0, 1.0, 7)[:, None])

    def test_quadratic_objective_with_an_overflowing_lane(self):
        prob = quadratic_make(np.linspace(1.0, 4.0, 10), 0.1, np.linspace(-1.0, 1.0, 10))
        w = RngStream(5).normal((15, 10)) * np.logspace(-3, 3, 15)[:, None]
        w[4] = 1e300
        got = self.assert_lanes_match(prob.objective, w)
        assert math.isinf(got[4]) and np.isfinite(np.delete(got, 4)).all()

    @settings(max_examples=60, deadline=None)
    @given(lanes=st.integers(1, 9), dim=st.integers(1, 300), rows=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1), fortran=st.booleans())
    @example(lanes=5, dim=257, rows=129, seed=1, fortran=True)
    def test_one_reduction_equals_each_lanes(self, lanes, dim, rows, seed, fortran):
        """The quadratic objective and the MLP's dataset metrics of C- and
        Fortran-ordered lanes, with row lengths on both sides of numpy's
        pairwise blocks (8 and 128 elements)."""
        gen = np.random.default_rng(seed)
        quad = quadratic_make(1.0 + gen.random(dim), 0.3, gen.normal(size=dim))
        prob = mlp_make(2, 3, 3, gaussian_blobs(5, 3, 2, 1.5, RngStream(seed)), batch_size=4)
        holdout = LabeledSet(gen.normal(size=(rows, 2)), gen.integers(0, 3, rows))
        order = np.asfortranarray if fortran else np.ascontiguousarray
        self.assert_lanes_match(quad.objective, order(gen.normal(size=(lanes, dim))))
        w = order(gen.normal(size=(lanes, prob.dim)) * 3.0)
        self.assert_lanes_match(lambda v: prob.dataset_loss(v, holdout), w)
        self.assert_lanes_match(lambda v: prob.dataset_error(v, holdout), w)

    def test_mlp_holdout_metrics(self):
        """The shapes of criterion 9: 15 lanes scored on 120 holdout points."""
        prob = mlp_make(2, 16, 3, gaussian_blobs(80, 3, 2, 1.5, RngStream(42)), batch_size=32)
        holdout = gaussian_blobs(40, 3, 2, 1.5, RngStream(43))
        w = RngStream(8).normal((15, prob.dim)) * np.logspace(-2, 1.5, 15)[:, None]
        self.assert_lanes_match(lambda v: prob.dataset_loss(v, holdout), w)
        self.assert_lanes_match(lambda v: prob.dataset_error(v, holdout), w)
        self.assert_lanes_match(prob.objective, w)


class TestFdCheck:
    def test_quadratic_tight(self):
        prob = quadratic_make([1.0, 3.0, 0.5], 0.2, [0.1, 0.2, 0.3])
        rng = RngStream(21)
        for _ in range(20):
            w = rng.normal(3)
            token = prob.sample(rng)
            assert fd_check(prob, w, token, h=1e-5) <= 1e-7

    def test_synth_common_token_linear(self):
        prob = synth_make(999.0, 1.0)
        assert fd_check(prob, np.array([0.37]), COMMON, h=1e-5) <= 1e-10

    def test_synth_rare_token(self):
        prob = synth_make(999.0, 1.0)
        assert fd_check(prob, np.array([0.37]), RARE, h=1e-5) <= 1e-7

    def test_bad_h_rejected(self):
        prob = synth_make(999.0, 1.0)
        with pytest.raises(ValueError):
            fd_check(prob, np.array([0.5]), COMMON, h=0.0)


class TestLoadCsvDataset:
    def test_single_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,0\n")
        data = load_csv_dataset(path, 2, 3)
        assert np.array_equal(data.features, [[1.0, 2.0]])
        assert np.array_equal(data.labels, [0])

    def test_crlf_and_order_preserved(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1,2,0\r\n3,4,1\r\n")
        data = load_csv_dataset(path, 2, 2)
        assert np.array_equal(data.features, [[1, 2], [3, 4]])
        assert np.array_equal(data.labels, [0, 1])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,x,0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv_dataset(path, 2, 2)

    def test_wrong_arity_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0,0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv_dataset(path, 2, 2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,7\n")
        with pytest.raises(ValueError, match="label"):
            load_csv_dataset(path, 2, 2)

    @pytest.mark.parametrize("feature", ["nan", "1e400", "-inf"])
    def test_non_finite_feature_reports_line(self, tmp_path, feature):
        path = tmp_path / "d.csv"
        path.write_text(f"1.0,2.0,0\n{feature},2.0,1\n")
        with pytest.raises(ValueError, match="line 2: features must be finite"):
            load_csv_dataset(path, 2, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv_dataset(path, 2, 2)
