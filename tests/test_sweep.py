import io
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import criterion9
from avagrad_lab import sweep
from avagrad_lab.optim import HyperParams, Method
from avagrad_lab.core import RngStream, Schedule
from avagrad_lab.mlp import MlpProblem, gaussian_blobs
from avagrad_lab.problems import QuadraticProblem, quadratic_make
from avagrad_lab.runner import run_trial, run_trials
from avagrad_lab.sweep import (
    BLOCK_SCALARS,
    GridSpec,
    HeatmapCell,
    default_grid,
    export_heatmap,
    run_sweep,
    separability_index,
)
from test_runner import replaced


class TestDefaultGrid:
    def test_counts(self):
        alphas, epsilons = default_grid()
        assert len(alphas) == 21 and len(epsilons) == 21
        assert len(alphas) * len(epsilons) == 441

    def test_contains_one_tenth(self):
        alphas, epsilons = default_grid()
        assert 0.1 in alphas and 0.1 in epsilons

    def test_extremes(self):
        alphas, epsilons = default_grid()
        assert min(alphas) == 5e-7 and max(alphas) == 5000.0
        assert min(epsilons) == 1e-8 and max(epsilons) == 100.0

    def test_matches_hardcoded_construction_rule(self):
        expected_eps = [1e-8, 2e-8, 1e-7, 2e-7, 1e-6, 2e-6, 1e-5, 2e-5, 1e-4, 2e-4,
                        1e-3, 2e-3, 1e-2, 2e-2, 1e-1, 2e-1, 1.0, 2.0, 10.0, 20.0, 100.0]
        expected_alphas = [5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
                           1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0, 50.0, 100.0,
                           500.0, 1000.0, 5000.0]
        alphas, epsilons = default_grid()
        assert epsilons == expected_eps
        assert alphas == expected_alphas

    def test_sorted_ascending(self):
        alphas, epsilons = default_grid()
        assert alphas == sorted(alphas) and epsilons == sorted(epsilons)


def small_spec(methods=(Method.SGD, Method.ADAM), alphas=(0.01, 0.1, 1.0),
               epsilons=(1e-4, 1e-2, 1.0), seeds=(0, 1), T=50, problem=None, **kw):
    return GridSpec(
        problem=problem or quadratic_make([1.0, 4.0], 0.1, [0.3, -0.2]),
        methods=list(methods),
        alphas=list(alphas),
        epsilons=list(epsilons),
        seeds=list(seeds),
        T=T,
        w1=np.array([1.0, 1.0]),
        **kw,
    )


class NoObjectiveProblem(QuadraticProblem):
    def objective(self, w):
        return None


class TestRunSweep:
    def test_cell_count_and_uniqueness(self):
        cells = run_sweep(small_spec(), progress=io.StringIO())
        assert len(cells) == 2 * 3 * 3 * 2
        keys = {(c.method, c.alpha, c.epsilon, c.seed) for c in cells}
        assert len(keys) == len(cells)

    def test_sorted_output(self):
        cells = run_sweep(small_spec(), progress=io.StringIO())
        assert [c.sort_key for c in cells] == sorted(c.sort_key for c in cells)

    def test_worker_counts_agree(self, tmp_path):
        spec = small_spec()
        p1 = tmp_path / "w1.csv"
        export_heatmap(run_sweep(spec, workers=1, progress=io.StringIO()), p1)
        for workers in (2, 3):
            pw = tmp_path / f"w{workers}.csv"
            export_heatmap(run_sweep(spec, workers=workers, progress=io.StringIO()), pw)
            assert p1.read_bytes() == pw.read_bytes()

    def test_diverging_cells_marked_not_fatal(self):
        spec = small_spec(methods=(Method.SGD,), alphas=(0.01, 5000.0), epsilons=(1e-4, 1.0),
                          seeds=(0,), T=200)
        cells = run_sweep(spec, progress=io.StringIO())
        assert len(cells) == 4
        big = [c for c in cells if c.alpha == 5000.0]
        assert all(c.status == "diverged" and math.isinf(c.final_metric) for c in big)
        small = [c for c in cells if c.alpha == 0.01]
        assert all(math.isfinite(c.final_metric) for c in small)

    def test_programming_error_propagates(self):
        class BrokenProblem(QuadraticProblem):
            def grad(self, w, token):
                raise TypeError("bug in grad")

        spec = small_spec(methods=(Method.SGD,), alphas=(0.1,), epsilons=(1e-2,), seeds=(0,))
        spec.problem = BrokenProblem([1.0, 4.0])
        with pytest.raises(TypeError, match="bug in grad"):
            run_sweep(spec, progress=io.StringIO())

    @pytest.mark.parametrize("axis", [dict(seeds=(0, 0)),
                                      dict(methods=(Method.ADAM, Method.SGD, Method.ADAM))])
    def test_repeated_seeds_or_methods_rejected(self, axis):
        # a repeat would give two cells one identity (method, alpha, epsilon, seed)
        with pytest.raises(ValueError, match="must not repeat"):
            small_spec(**axis)

    @pytest.mark.parametrize("change, message", [
        (dict(seeds=()), "seeds must be non-empty"),
        (dict(alphas=()), "alphas must be non-empty"),
        (dict(epsilons=()), "epsilons must be non-empty"),
        (dict(alphas=(0.1, 0.01)), "alphas must be strictly ascending"),
        (dict(epsilons=(0.0, 1.0)), "epsilons must be finite and strictly positive"),
        (dict(alphas=(-0.1, 0.1)), "alphas must be finite and strictly positive"),
        (dict(T=0), "T must be >= 1"),
        (dict(metric="loss"), "metric must be one of"),
        (dict(metric="holdout_ce"), "holdout metrics need a holdout dataset"),
        (dict(metric="holdout_error", holdout=gaussian_blobs(4, 3, 2, 1.0, RngStream(0))),
         "holdout metrics only apply to the MLP problem"),
        (dict(problem=NoObjectiveProblem([1.0, 4.0])), "problem has no exact objective"),
    ], ids=["no-seeds", "no-alphas", "no-epsilons", "unsorted", "zero", "negative", "T", "metric",
            "no-holdout", "holdout-not-mlp", "no-objective"])
    def test_bad_spec_rejected(self, change, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**change)

    def test_cells_keep_no_trace(self, monkeypatch):
        # a one-step sweep records its one step, and still needs no trace
        records = []

        def kept_run_trials(cfgs):
            records.extend(run_trials(cfgs))
            return records[-len(cfgs):]

        monkeypatch.setattr(sweep, "run_trials", kept_run_trials)
        run_sweep(small_spec(T=1), progress=io.StringIO())
        assert len(records) == 2 * 3 * 3 * 2
        assert all(rec.trace is None for rec in records)

    def test_bad_beta_rejected_before_any_cell(self):
        with pytest.raises(ValueError, match="beta1"):
            small_spec(hp=HyperParams(Schedule.constant(0.1), 1e-2, Schedule.constant(1.0)))

    def test_non_finite_weight_decay_rejected_before_any_cell(self):
        with pytest.raises(ValueError, match="weight_decay"):
            small_spec(hp=HyperParams(Schedule.constant(0.1), 1e-2, weight_decay=math.nan))

    def test_progress_lines(self):
        out = io.StringIO()
        run_sweep(small_spec(seeds=(0,), alphas=(0.1,), epsilons=(1e-2,),
                             methods=(Method.SGD,)), progress=out)
        assert out.getvalue() == "1/1\n"

    def test_progress_is_one_line_per_block_counted_in_cells(self, monkeypatch):
        spec = small_spec(methods=(Method.SGD, Method.ADAM), alphas=(0.01, 0.1, 1.0),
                          epsilons=(1e-2,), seeds=(0,))
        monkeypatch.setattr(sweep, "BLOCK_SCALARS", 2 * (2 + 2))  # two lanes at d = 2
        out = io.StringIO()
        run_sweep(spec, progress=out)
        assert out.getvalue() == "2/6\n3/6\n5/6\n6/6\n"  # blocks never span two methods

    def test_failing_cell_is_marked_alone(self, monkeypatch):
        """A numeric failure in one cell of a block marks that cell failed;
        its block is rerun one cell at a time, so the others keep their result."""
        class FlakyProblem(QuadraticProblem):
            seen, bad = [], None

            def objective(self, w):  # one row per lane: a block is scored in one call
                rows = [row.tobytes() for row in np.atleast_2d(w)]
                if self.bad in rows:
                    raise FloatingPointError("overflow in the metric")
                self.seen.extend(rows)
                return super().objective(w)

        spec = small_spec(methods=(Method.ADAM,), T=20)
        spec.problem = FlakyProblem([1.0, 4.0], 0.1, [0.3, -0.2])
        monkeypatch.setattr(sweep, "BLOCK_SCALARS", 10**6)  # every cell in one block
        clean = run_sweep(spec, progress=io.StringIO())
        FlakyProblem.bad = FlakyProblem.seen[5]  # the sixth cell's final iterate
        reruns = []

        def counted_run_trial(cfg):
            reruns.append(cfg)
            return run_trial(cfg)

        monkeypatch.setattr(sweep, "run_trial", counted_run_trial)
        cells = run_sweep(spec, progress=io.StringIO())
        assert len(reruns) == len(cells)
        failed = [c for c in cells if c.status == "failed"]
        assert len(failed) == 1 and math.isinf(failed[0].final_metric)
        assert [c for c in cells if c.status != "failed"] == \
            [c for c in clean if c.sort_key != failed[0].sort_key]

    def test_seed_mixing_independent_of_method_list_order(self):
        # same cell identity -> same result, regardless of other methods present
        a = run_sweep(small_spec(methods=(Method.SGD,)), progress=io.StringIO())
        b = run_sweep(small_spec(methods=(Method.SGD, Method.ADAM)), progress=io.StringIO())
        sgd_b = [c for c in b if c.method == "sgd"]
        assert [(c.sort_key, c.final_metric) for c in a] == \
               [(c.sort_key, c.final_metric) for c in sgd_b]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """This process runs share 0 of the cells and forks one child per other
    non-empty share; each child pickles its cells back through a pipe."""

    def test_more_workers_than_cells_fork_no_empty_share(self, tmp_path, monkeypatch):
        spec = small_spec(alphas=(0.01, 0.1), epsilons=(1e-2,), seeds=(0,))  # 2 cells a method
        p1, p3 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        export_heatmap(run_sweep(spec, workers=1, progress=io.StringIO()), p1)
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        export_heatmap(run_sweep(spec, workers=3, progress=io.StringIO()), p3)
        assert p1.read_bytes() == p3.read_bytes()
        assert len(forks) == 1  # share 2 of 3 holds no cell
        assert_no_child_left()

    def test_progress_one_line_per_block_ends_at_total(self, monkeypatch):
        spec = small_spec(methods=(Method.SGD, Method.ADAM), alphas=(0.01, 0.1, 1.0),
                          epsilons=(1e-2,), seeds=(0,))
        monkeypatch.setattr(sweep, "BLOCK_SCALARS", 2 * (2 + 2))  # two lanes at d = 2
        out = io.StringIO()
        run_sweep(spec, workers=2, progress=out)
        # share 0 holds cells 0 and 2 of each method, one block each; share 1
        # holds cell 1 of each method, and its blocks are counted after them
        assert out.getvalue() == "2/6\n4/6\n5/6\n6/6\n"

    def test_shares_interleave_cells(self, monkeypatch):
        spec = small_spec(methods=(Method.SGD, Method.ADAM), alphas=(0.01, 0.1, 1.0),
                          epsilons=(1e-2,), seeds=(0, 1))
        monkeypatch.setattr(sweep, "BLOCK_SCALARS", 2 * (2 + 2))  # two lanes at d = 2
        # every third of each method's six cells, from its cell 1 on
        assert sweep._blocks(spec, 1, 3) == [[(0, 0, 0, 1), (0, 2, 0, 0)],
                                             [(1, 0, 0, 1), (1, 2, 0, 0)]]
        shares = [cell for part in range(3) for block in sweep._blocks(spec, part, 3)
                  for cell in block]
        assert sorted(shares) == [cell for block in sweep._blocks(spec, 0, 1) for cell in block]

    @staticmethod
    def failing_in_child(error):
        parent = os.getpid()

        class ChildBrokenProblem(QuadraticProblem):
            def grad(self, w, token):
                if os.getpid() != parent:
                    raise error
                return super().grad(w, token)

        spec = small_spec(methods=(Method.SGD,))
        spec.problem = ChildBrokenProblem([1.0, 4.0], 0.1, [0.3, -0.2])
        return spec

    def test_child_error_surfaces_with_its_type(self):
        spec = self.failing_in_child(TypeError("bug in grad, seen in a child"))
        with pytest.raises(TypeError, match="bug in grad, seen in a child"):
            run_sweep(spec, workers=2, progress=io.StringIO())
        assert_no_child_left()

    def test_unpicklable_child_error_is_named(self):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        spec = self.failing_in_child(LocalError("no pickle for me"))
        with pytest.raises(RuntimeError, match="LocalError: no pickle for me"):
            run_sweep(spec, workers=2, progress=io.StringIO())
        assert_no_child_left()

    def test_child_exit_without_result_names_its_status(self, monkeypatch):
        parent = os.getpid()
        run_block = sweep._run_block

        def exiting_run_block(spec, block):
            if os.getpid() != parent:
                os._exit(3)
            return run_block(spec, block)

        monkeypatch.setattr(sweep, "_run_block", exiting_run_block)
        with pytest.raises(RuntimeError, match="status 3"):
            run_sweep(small_spec(), workers=2, progress=io.StringIO())
        assert_no_child_left()

    def test_parent_error_kills_running_children(self, monkeypatch):
        parent = os.getpid()

        def stuck_run_block(spec, block):
            if os.getpid() != parent:
                time.sleep(60)
            raise TypeError("bug in the parent's share")

        monkeypatch.setattr(sweep, "_run_block", stuck_run_block)
        start = time.monotonic()
        with pytest.raises(TypeError, match="parent's share"):
            run_sweep(small_spec(), workers=3, progress=io.StringIO())
        assert time.monotonic() - start < 30
        assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux's /proc")
    def test_killed_sweep_takes_its_worker_with_it(self, tmp_path):
        if not any(Path("/proc/self/task").glob("*/children")):
            pytest.skip("this kernel lists no children under /proc")
        config = tmp_path / "sweep.ini"
        config.write_text("[problem]\nkind = quadratic\ncurvatures = 1.0,4.0\n\n"
                          "[run]\nsteps = 100000000\n\n[grid]\nalphas = 0.01\n"
                          "epsilons = 0.001,0.1\nmethods = sgd,adam\nseeds = 0\n")
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = ("import sys; from avagrad_lab.cli import main; main(['sweep', '--config', "
                "sys.argv[1], '--out', sys.argv[2], '--workers', '2'])")
        proc = subprocess.Popen([sys.executable, "-c", code, str(config), str(tmp_path / "out")],
                                env=env, stderr=subprocess.DEVNULL)
        workers = []

        def running(pid):  # a zombie has exited
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        try:
            deadline = time.monotonic() + 60
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                for children in Path(f"/proc/{proc.pid}/task").glob("*/children"):
                    workers += [int(pid) for pid in children.read_text().split()]
                time.sleep(0.01)
            assert workers, "the sweep forked no worker"
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 10
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(map(running, workers))
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


AXIS_ALPHAS = (1e-3, 1e-1, 1.0, 10.0, 1e150)  # SGD and momentum diverge at 10 and up
AXIS_EPSILONS = (1e-8, 1e-4, 1e-1, 10.0)


@settings(max_examples=25, deadline=None)
@given(
    methods=st.lists(st.sampled_from(list(Method)), min_size=1, max_size=2, unique=True),
    alphas=st.sets(st.sampled_from(AXIS_ALPHAS), min_size=1),
    epsilons=st.sets(st.sampled_from(AXIS_EPSILONS), min_size=1),
    n_seeds=st.integers(1, 2),
    d=st.integers(1, 3),
    fixed_w1=st.booleans(),
    schedules=st.booleans(),
    T=st.integers(1, 60),
    width=st.integers(1, 12),
    workers=st.integers(1, 3),
    base_seed=st.integers(0, 2**32 - 1),
)
def test_cells_independent_of_workers_and_block_width(methods, alphas, epsilons, n_seeds, d,
                                                     fixed_w1, schedules, T, width, workers,
                                                     base_seed):
    # with schedules, each lane of a block evaluates its own alpha base / sqrt(t)
    hp = HyperParams(Schedule.inverse_sqrt(1.0), 1.0, Schedule.inverse_t()) if schedules else None
    spec = GridSpec(problem=quadratic_make(np.linspace(1.0, 4.0, d), 0.1), methods=methods,
                    alphas=sorted(alphas), epsilons=sorted(epsilons),
                    seeds=list(range(n_seeds)), T=T, base_seed=base_seed, hp=hp,
                    w1=np.full(d, 2.0) if fixed_w1 else None, init_scale=1.0)
    assert_cells_independent_of_workers_and_block_width(spec, width, workers)


def assert_cells_independent_of_workers_and_block_width(spec, width, workers):
    """The sweep of `spec` gives the same cells in blocks of 1 lane, of `width`
    lanes and of the shipped bound's width, with 1 worker and with `workers`."""
    per_lane = spec.problem.dim + spec.problem.draw_size
    runs = []
    for scalars, n in ((per_lane, 1), (width * per_lane, 1), (width * per_lane, workers),
                       (BLOCK_SCALARS, workers)):
        sweep.BLOCK_SCALARS = scalars
        try:
            runs.append(run_sweep(spec, workers=n, progress=io.StringIO()))
        finally:
            sweep.BLOCK_SCALARS = BLOCK_SCALARS
    assert all(run == runs[0] for run in runs[1:])


@settings(max_examples=60, deadline=None)
@given(
    methods=st.lists(st.sampled_from([Method.ADAM, Method.AVAGRAD, Method.AMSGRAD, Method.SGD]),
                     min_size=1, max_size=2, unique=True),
    alphas=st.sets(st.sampled_from(AXIS_ALPHAS), min_size=2, max_size=3),
    epsilons=st.sets(st.sampled_from(AXIS_EPSILONS), min_size=1, max_size=2),
    n_seeds=st.integers(1, 2),
    n_in=st.integers(1, 3),
    n_hidden=st.integers(1, 4),
    n_classes=st.integers(1, 3),
    n_per_class=st.integers(1, 16),
    batch=st.integers(1, 48),  # clipped to the training set
    metric=st.sampled_from(["holdout_ce", "holdout_error"]),
    T=st.integers(1, 12),
    width=st.integers(1, 12),
    workers=st.integers(1, 3),
    base_seed=st.integers(0, 2**32 - 1),
)
# numpy sums a batch axis of 8 or more rows pairwise when the other axis has
# size 1 and row by row when it is longer. The first two examples run each
# order at rates where a last-bit change reaches the metric; the third has a
# single class and the other metric.
@example(methods=[Method.ADAM, Method.AVAGRAD], alphas={1.0, 10.0}, epsilons={1e-8, 1e-1},
         n_seeds=2, n_in=2, n_hidden=1, n_classes=3, n_per_class=10, batch=12,
         metric="holdout_ce", T=5, width=3, workers=2, base_seed=0)
@example(methods=[Method.SGD, Method.AVAGRAD], alphas={1.0, 10.0}, epsilons={1e-8, 1e-1},
         n_seeds=2, n_in=2, n_hidden=3, n_classes=3, n_per_class=10, batch=12,
         metric="holdout_ce", T=5, width=3, workers=3, base_seed=0)
@example(methods=[Method.ADAM], alphas={1e-1, 1.0}, epsilons={1e-8, 1e-1},
         n_seeds=2, n_in=1, n_hidden=1, n_classes=1, n_per_class=20, batch=12,
         metric="holdout_error", T=5, width=2, workers=2, base_seed=0)
def test_mlp_cells_independent_of_workers_and_block_width(methods, alphas, epsilons, n_seeds,
                                                         n_in, n_hidden, n_classes, n_per_class,
                                                         batch, metric, T, width, workers,
                                                         base_seed):
    train = gaussian_blobs(n_per_class, n_classes, n_in, 1.5, RngStream(base_seed))
    holdout = gaussian_blobs(n_per_class, n_classes, n_in, 1.5, RngStream(base_seed + 1))
    problem = MlpProblem(n_in, n_hidden, n_classes, train, batch_size=min(batch, len(train)))
    spec = GridSpec(problem=problem, methods=methods, alphas=sorted(alphas),
                    epsilons=sorted(epsilons), seeds=list(range(n_seeds)), T=T,
                    base_seed=base_seed, metric=metric, holdout=holdout)
    assert_cells_independent_of_workers_and_block_width(spec, width, workers)


def test_criterion9_share_is_one_block_within_memory_budget():
    """Each method's share of criterion 9's grid on 2 workers, 74 cells, runs
    as one block; its traced peak at T = 50 stays within the budget that
    BLOCK_SCALARS exists for (1.9 MB measured)."""
    spec = replaced(criterion9.spec(), T=50)
    blocks = sweep._blocks(spec, 0, 2)
    assert [len(block) for block in blocks] == [74, 74]
    sweep._run_block(spec, blocks[0][:1])  # lazy imports and the library first
    tracemalloc.start()
    try:
        sweep._run_block(spec, blocks[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20, peak


def cell(method, alpha, eps, seed=0, metric=1.0, status="finished"):
    return HeatmapCell(method, alpha, eps, seed, metric, status)


class TestSeparabilityIndex:
    def test_metric_independent_of_epsilon_gives_one(self):
        cells = [cell("adam", a, e, metric=(a - 0.1) ** 2)
                 for a in (0.01, 0.1, 1.0) for e in (1e-3, 1e-2, 1e-1)]
        assert separability_index(cells, "adam") == 1.0

    def test_argmin_strictly_increasing_gives_one_over_n(self):
        alphas = [0.01, 0.1, 1.0, 10.0, 100.0]
        epsilons = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]
        cells = [cell("adam", a, e, metric=(math.log10(a) - math.log10(e * 100)) ** 2)
                 for a in alphas for e in epsilons]
        assert separability_index(cells, "adam") == pytest.approx(0.2)

    def test_all_diverged_column_rejected(self):
        cells = [cell("adam", a, 1e-3, metric=a) for a in (0.1, 1.0)]
        cells += [cell("adam", a, 1e-2, metric=math.inf, status="diverged")
                  for a in (0.1, 1.0)]
        with pytest.raises(ValueError, match="diverged"):
            separability_index(cells, "adam")

    def test_needs_two_epsilons(self):
        cells = [cell("adam", a, 1e-3, metric=a) for a in (0.1, 1.0)]
        with pytest.raises(ValueError):
            separability_index(cells, "adam")

    def test_in_unit_interval_and_tie_break(self):
        # two-way tie in the mode: break toward smaller alpha
        cells = [cell("adam", a, e, metric=0.0) for a in (0.1, 1.0) for e in (1e-3, 1e-2)]
        # constant metric: every argmin is the smallest alpha
        assert separability_index(cells, "adam") == 1.0

    def test_mean_over_seeds(self):
        cells = [cell("adam", 0.1, 1e-3, seed=0, metric=10.0),
                 cell("adam", 0.1, 1e-3, seed=1, metric=0.0),
                 cell("adam", 1.0, 1e-3, seed=0, metric=6.0),
                 cell("adam", 1.0, 1e-3, seed=1, metric=6.0),
                 cell("adam", 0.1, 1e-2, seed=0, metric=0.0),
                 cell("adam", 0.1, 1e-2, seed=1, metric=0.0),
                 cell("adam", 1.0, 1e-2, seed=0, metric=9.0),
                 cell("adam", 1.0, 1e-2, seed=1, metric=9.0)]
        # column 1e-3: means are 5.0 (alpha .1) vs 6.0 (alpha 1) -> argmin 0.1
        assert separability_index(cells, "adam") == 1.0


class TestExportHeatmap:
    def test_empty_gives_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        export_heatmap([], path)
        assert path.read_text() == "method,alpha,epsilon,seed,final_metric,status\n"

    def test_one_cell_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        export_heatmap([cell("adam", 0.1, 1e-3, metric=0.25)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "adam,0.10000000000000001,0.001,0,0.25,finished"

    def test_diverged_cell_has_empty_metric_field(self, tmp_path):
        path = tmp_path / "h.csv"
        export_heatmap([cell("adam", 0.1, 1e-3, metric=math.inf, status="diverged")], path)
        assert path.read_text().splitlines()[1] == "adam,0.10000000000000001,0.001,0,,diverged"

    def test_deterministic_bytes(self, tmp_path):
        cells = run_sweep(small_spec(seeds=(0,)), progress=io.StringIO())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_heatmap(cells, p1)
        export_heatmap(cells, p2)
        assert p1.read_bytes() == p2.read_bytes()
