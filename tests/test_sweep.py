import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avagrad_lab import sweep
from avagrad_lab.optim import Method
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
               epsilons=(1e-4, 1e-2, 1.0), seeds=(0, 1), T=50, **kw):
    problem = quadratic_make([1.0, 4.0], 0.1, [0.3, -0.2])
    return GridSpec(
        problem=problem,
        methods=list(methods),
        alphas=list(alphas),
        epsilons=list(epsilons),
        seeds=list(seeds),
        T=T,
        w1=np.array([1.0, 1.0]),
        **kw,
    )


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
        out = io.StringIO()
        cells1 = run_sweep(spec, workers=1, progress=out)
        cells2 = run_sweep(spec, workers=2, progress=out)
        p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        export_heatmap(cells1, p1)
        export_heatmap(cells2, p2)
        assert p1.read_bytes() == p2.read_bytes()

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
            small_spec(beta1=1.0)

    def test_non_finite_weight_decay_rejected_before_any_cell(self):
        with pytest.raises(ValueError, match="weight_decay"):
            small_spec(weight_decay=math.nan)

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

            def objective(self, w):
                if w.tobytes() == self.bad:
                    raise FloatingPointError("overflow in the metric")
                self.seen.append(w.tobytes())
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
    T=st.integers(1, 60),
    width=st.integers(1, 12),
    base_seed=st.integers(0, 2**32 - 1),
)
def test_cells_independent_of_workers_and_block_width(methods, alphas, epsilons, n_seeds, d,
                                                     fixed_w1, T, width, base_seed):
    spec = GridSpec(problem=quadratic_make(np.linspace(1.0, 4.0, d), 0.1), methods=methods,
                    alphas=sorted(alphas), epsilons=sorted(epsilons),
                    seeds=list(range(n_seeds)), T=T, base_seed=base_seed,
                    w1=np.full(d, 2.0) if fixed_w1 else None, init_scale=1.0)
    per_lane = spec.problem.dim + spec.problem.draw_size
    runs = []
    for lanes, workers in ((1, 1), (width, 1), (width, 2)):
        sweep.BLOCK_SCALARS = lanes * per_lane
        try:
            runs.append(run_sweep(spec, workers=workers, progress=io.StringIO()))
        finally:
            sweep.BLOCK_SCALARS = BLOCK_SCALARS
    assert runs[1] == runs[0] and runs[2] == runs[0]


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
